"""Corpus builders, random generators, and independent oracles.

The oracles deliberately recompute everything with naive loops and without
reusing any production code path, so a bug in the package cannot hide in
its own verification.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from rscore import Corpus, ProgramRoster, PublicationRecord


def make_corpus(pubs, refs, cands=(), window=None) -> Corpus:
    """Build a corpus from plain tuples.

    ``pubs``: (id, venue, year, [authors]); ``refs``/``cands``: (program_id,
    [faculty]) with reference order meaning priority order.
    """
    return Corpus(
        publications=tuple(
            PublicationRecord(id=p, venue=v, year=y, authors=tuple(a))
            for p, v, y, a in pubs
        ),
        reference_programs=tuple(ProgramRoster(pid, frozenset(fac)) for pid, fac in refs),
        candidate_programs=tuple(ProgramRoster(pid, frozenset(fac)) for pid, fac in cands),
        year_window=window,
    )


def random_corpus(
    rng: np.random.Generator,
    n_ref: int = 4,
    n_cand: int = 3,
    n_venues: int = 8,
    n_papers: int = 120,
    externals: int = 4,
    hub: bool = False,
) -> Corpus:
    """Random but always-usable corpus.

    Papers mix authors across rosters and include non-roster co-authors.
    Every reference program gets at least one solo paper so its transition
    row is defined; with ``hub`` every reference program also publishes in
    venue ``v00``, which makes every prefix model irreducible.
    """
    venues = [f"v{i:02d}" for i in range(n_venues)]
    refs = [
        (f"ref{i:02d}", [f"ref{i:02d}.m{j}" for j in range(int(rng.integers(2, 5)))])
        for i in range(n_ref)
    ]
    cands = [
        (f"cand{i:02d}", [f"cand{i:02d}.m{j}" for j in range(int(rng.integers(1, 4)))])
        for i in range(n_cand)
    ]
    people = [m for _, fac in refs + cands for m in fac]
    people += [f"ext.m{j}" for j in range(externals)]

    pubs = []
    serial = 0

    def add(venue, authors, year=2010):
        nonlocal serial
        pubs.append((f"p{serial:04d}", venue, year, list(authors)))
        serial += 1

    for _ in range(n_papers):
        count = int(rng.integers(1, 4))
        authors = list(rng.choice(people, size=count, replace=False))
        add(venues[int(rng.integers(0, n_venues))], authors, int(rng.integers(2005, 2012)))
    for _, faculty in refs:
        add(venues[int(rng.integers(0, n_venues))], [faculty[0]])
        if hub:
            add(venues[0], [faculty[0]])
    return make_corpus(pubs, refs, cands)


def oracle_counts(corpus: Corpus, distinct: bool = False):
    """Brute-force recount of every table, one nested loop per definition."""
    ref_members = set()
    for roster in corpus.reference_programs:
        ref_members |= roster.faculty
    venue_set = sorted(
        {
            pub.venue
            for pub in corpus.publications
            if any(author in ref_members for author in pub.authors)
        }
    )

    per_faculty: dict[tuple[str, str, str], Fraction] = {}
    rosters = list(corpus.reference_programs) + list(corpus.candidate_programs)
    for roster in rosters:
        for member in sorted(roster.faculty):
            for pub in corpus.publications:
                if pub.venue not in venue_set:
                    continue
                if member not in pub.authors:
                    continue
                same = len([a for a in pub.authors if a in roster.faculty])
                key = (roster.program_id, member, pub.venue)
                per_faculty[key] = per_faculty.get(key, Fraction(0)) + Fraction(1, same)

    per_program_venue: dict[tuple[str, str], Fraction] = {}
    for (program, member, venue), weight in per_faculty.items():
        key = (program, venue)
        per_program_venue[key] = per_program_venue.get(key, Fraction(0)) + weight

    per_program = {
        roster.program_id: sum(
            (per_program_venue.get((roster.program_id, v), Fraction(0)) for v in venue_set),
            start=Fraction(0),
        )
        for roster in rosters
    }

    per_venue = {}
    for venue in venue_set:
        if distinct:
            per_venue[venue] = Fraction(
                len(
                    [
                        pub.id
                        for pub in corpus.publications
                        if pub.venue == venue
                        and any(a in ref_members for a in pub.authors)
                    ]
                )
            )
        else:
            per_venue[venue] = sum(
                (
                    per_program_venue.get((roster.program_id, venue), Fraction(0))
                    for roster in corpus.reference_programs
                ),
                start=Fraction(0),
            )

    return venue_set, per_faculty, per_program_venue, per_venue, per_program


def oracle_model(corpus: Corpus):
    """The reputation model in exact rationals: beta, alpha, p_prime, gamma and
    nu as nested lists of Fractions, programs and venues in table order.

    The counts are whole numbers, so every entry is a rational. beta is each
    reference program's venue counts over its total, alpha each venue's counts
    over the reference programs' total in it, p_prime = beta alpha, gamma the
    stationary vector of p_prime and nu = gamma beta over its largest entry.
    """
    venue_set, _, per_program_venue, per_venue, per_program = oracle_counts(corpus)
    programs = [roster.program_id for roster in corpus.reference_programs]
    count = [[per_program_venue.get((pid, v), Fraction(0)) for v in venue_set] for pid in programs]
    beta = [[c / per_program[pid] for c in row] for pid, row in zip(programs, count)]
    alpha = [[row[j] / per_venue[v] for row in count] for j, v in enumerate(venue_set)]
    p_prime = [[sum((b * a[w] for b, a in zip(row, alpha)), start=Fraction(0))
                for w in range(len(programs))] for row in beta]
    gamma = exact_gth(p_prime)
    nu = [sum((g * row[j] for g, row in zip(gamma, beta)), start=Fraction(0))
          for j in range(len(venue_set))]
    top = max(nu)
    return beta, alpha, p_prime, gamma, [value / top for value in nu]


def prefix_corpus(corpus: Corpus, size: int) -> Corpus:
    """The corpus with only its first ``size`` reference programs, rebuilt."""
    return make_corpus(
        pubs=[(p.id, p.venue, p.year, list(p.authors)) for p in corpus.publications],
        refs=[(r.program_id, sorted(r.faculty)) for r in corpus.reference_programs[:size]],
        cands=[(r.program_id, sorted(r.faculty)) for r in corpus.candidate_programs],
    )


def oracle_ranking(corpus: Corpus) -> list[tuple[str, Fraction]]:
    """The candidates' exact scores under ``oracle_model``, as (id, score)
    pairs by descending score, then id: each paper in a venue weighs its nu."""
    venue_set, _, per_program_venue, _, _ = oracle_counts(corpus)
    *_, nu = oracle_model(corpus)
    scores = [
        (roster.program_id, sum(
            (per_program_venue.get((roster.program_id, venue), 0) * weight
             for venue, weight in zip(venue_set, nu)), start=Fraction(0)))
        for roster in corpus.candidate_programs
    ]
    return sorted(scores, key=lambda item: (-item[1], item[0]))


def exact_gth(p):
    """Stationary vector of an irreducible stochastic matrix of Fractions by
    GTH state reduction, exact because it only adds, multiplies and divides."""
    a = [list(row) for row in p]
    n = len(a)
    for k in range(n - 1):
        pivot = sum(a[k][k + 1 :], start=Fraction(0))
        for i in range(k + 1, n):
            a[i][k] /= pivot
            for j in range(k + 1, n):
                a[i][j] += a[i][k] * a[k][j]
    x = [Fraction(0)] * (n - 1) + [Fraction(1)]
    for k in range(n - 2, -1, -1):
        x[k] = sum((x[i] * a[i][k] for i in range(k + 1, n)), start=Fraction(0))
    total = sum(x, start=Fraction(0))
    return [value / total for value in x]


class OracleReject(Exception):
    """The oracle's verdict on bad input: the expected error text."""


def _refuse_repeated_keys(pairs):
    keys = [key for key, _ in pairs]
    for position, key in enumerate(keys):
        if key in keys[:position]:
            raise OracleReject(f"duplicate key {key!r}")
    return dict(pairs)


def oracle_publications(text: str) -> list[tuple[str, str, int, tuple[str, ...]]]:
    """Records of a publications file as (id, venue, year, authors), by README's rules.

    A record ends at LF; one CR before it is dropped; blank lines are skipped.
    Raises :class:`OracleReject` with the error text of the first bad line.
    """
    records = []
    ids = []
    lines = text.split("\n")
    for number in range(len(lines)):
        line = lines[number]
        if line.endswith("\r"):
            line = line[:-1]
        if line.strip() == "":
            continue
        where = f"publications line {number + 1}"
        try:
            value = json.loads(line, object_pairs_hook=_refuse_repeated_keys)
        except OracleReject as exc:
            raise OracleReject(f"{where}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise OracleReject(f"{where}: malformed record: {exc.msg}") from None
        except RecursionError:
            raise OracleReject(f"{where}: malformed record: nested too deeply") from None
        if type(value) is not dict:
            raise OracleReject(f"{where}: expected an object, got {type(value).__name__}")
        keys = ["authors", "id", "venue", "year"]
        unknown = sorted(key for key in value if key not in keys)
        if unknown:
            raise OracleReject(f"{where}: unknown keys {unknown}")
        missing = [key for key in keys if key not in value]
        if missing:
            raise OracleReject(f"{where}: missing keys {missing}")

        def identifier(raw, what):
            if type(raw) is not str:
                raise OracleReject(f"{where}: {what} must be a string, got {raw!r}")
            if raw.strip() == "":
                raise OracleReject(f"{where}: empty {what}")
            if any(0xD800 <= ord(char) <= 0xDFFF for char in raw):
                raise OracleReject(f"{where}: {what} is not valid Unicode")
            return raw.strip()

        pub_id = identifier(value["id"], "publication id")
        if pub_id in ids:
            raise OracleReject(f"{where}: duplicate publication id {pub_id!r}")
        ids.append(pub_id)
        venue = identifier(value["venue"], "venue id")
        year = value["year"]
        if type(year) is not int:
            raise OracleReject(f"{where}: year must be an integer, got {year!r}")
        if type(value["authors"]) is not list:
            raise OracleReject(f"{where}: authors must be an array")
        if value["authors"] == []:
            raise OracleReject(f"empty author list in record {pub_id!r} ({where})")
        authors = [identifier(raw, "author id") for raw in value["authors"]]
        for position, author in enumerate(authors):
            if author in authors[:position]:
                raise OracleReject(f"duplicate author within record {pub_id!r} ({where})")
        records.append((pub_id, venue, year, tuple(authors)))
    return records


def power_iteration(p: np.ndarray, tol: float = 1e-14, max_iter: int = 500_000):
    """Stationary distribution by repeated multiplication."""
    n = p.shape[0]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = x @ p
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - x)) < tol:
            return nxt
        x = nxt
    raise AssertionError("power iteration did not converge")


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def left_to_right_scores(block, nu) -> list[float]:
    """Each row's total of ``count * weight`` over every venue, zero counts
    included, added left to right from +0.0 in Python floats."""
    totals = []
    for counts in block:
        total = 0.0
        for count, weight in zip(counts, nu):
            total += count * weight
        totals.append(total)
    return totals


def random_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive row-stochastic matrix (hence irreducible, aperiodic)."""
    m = rng.uniform(0.05, 1.0, size=(n, n))
    return m / m.sum(axis=1, keepdims=True)


def sparse_irreducible_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    """Row-stochastic matrix with random zeros, kept irreducible by a cycle
    through every state."""
    m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
    m[np.arange(n), (np.arange(n) + 1) % n] += rng.uniform(0.01, 1.0, size=n)
    return m / m.sum(axis=1, keepdims=True)


def gth_one_matrix(p: np.ndarray) -> np.ndarray:
    """GTH stationary vector of one irreducible row-stochastic matrix, one
    state at a time: pairwise pivot sums of the remaining row, elementwise
    updates, and one dot per state in the back-substitution."""
    a = np.array(p, dtype=np.float64)
    n = a.shape[0]
    for k in range(n - 1):
        pivot = a[k, k + 1 :].sum()
        a[k + 1 :, k] /= pivot
        a[k + 1 :, k + 1 :] += a[k + 1 :, k, None] * a[k, k + 1 :]
    x = np.zeros(n)
    x[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        x[k] = x[k + 1 :] @ a[k + 1 :, k]
    return x / x.sum()
