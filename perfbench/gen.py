"""Seeded synthetic corpora for the benchmark workloads.

The generator uses only the standard library and shares no code with
``rscore`` or its tests. The same seed and shape always give the same
records, byte for byte. Properties the workloads rely on:

* venue popularity follows a Zipf law (s = 1.1); the per-venue
  paper counts and the roster sizes are the same for every seed, so the
  amount of work barely depends on it;
* a paper has 1-5 authors: the first from its home roster, each further one
  from outside every roster with probability 0.3, from another program's
  roster with probability 0.05, otherwise from the home roster;
* every reference program has one paper in the hub venue, so the reference
  chain of every prefix of the reference list is irreducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HUB_VENUE = "v-hub"
ZIPF_S = 1.1
EXTERNAL_SHARE = 0.30
CROSS_PROGRAM_SHARE = 0.05


@dataclass(frozen=True)
class Shape:
    papers: int
    reference: int
    candidates: int
    venues: int
    faculty: tuple[int, int]  # inclusive range of roster sizes


@dataclass(frozen=True)
class Program:
    program_id: str
    role: str
    faculty: tuple[str, ...]


@dataclass(frozen=True)
class Paper:
    paper_id: str
    venue: str
    year: int
    authors: tuple[str, ...]


@dataclass(frozen=True)
class Corpus:
    programs: tuple[Program, ...]
    papers: tuple[Paper, ...]


def zipf_counts(shape: Shape) -> list[int]:
    """Papers per venue, by popularity rank, summing to ``shape.papers``.

    The counts are the Zipf expectations rounded by largest remainder, so
    they are the same for every seed; the seed decides only which venue has
    which rank and which papers go where.
    """
    weights = [1.0 / rank**ZIPF_S for rank in range(1, shape.venues + 1)]
    scale = shape.papers / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(shape.venues), key=lambda r: (counts[r] - weights[r] * scale, r))
    for rank in by_remainder[: shape.papers - sum(counts)]:
        counts[rank] += 1
    return counts


def roster_sizes(bounds: tuple[int, int], count: int, rng: random.Random) -> list[int]:
    """``count`` sizes spread evenly over ``bounds``, in a seeded order.

    Every seed gets the same multiset of sizes, so the total faculty (and
    with it the size of the per-faculty table) does not depend on the seed.
    """
    low, high = bounds
    sizes = [low + round(i * (high - low) / max(1, count - 1)) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def generate(shape: Shape, seed: int) -> Corpus:
    """Draw one corpus of the given shape from ``seed``."""
    rng = random.Random(seed)
    programs = []
    for role, count, prefix in (
        ("reference", shape.reference, "ref"),
        ("candidate", shape.candidates, "cand"),
    ):
        for i, size in enumerate(roster_sizes(shape.faculty, count, rng)):
            pid = f"{prefix}{i:03d}"
            programs.append(
                Program(pid, role, tuple(f"{pid}.f{j:03d}" for j in range(size)))
            )

    venues = [f"v{i:05d}" for i in range(shape.venues)]
    # Shuffle so that lexicographic venue order is unrelated to popularity.
    rng.shuffle(venues)
    venue_draws = [
        venue for venue, count in zip(venues, zipf_counts(shape)) for _ in range(count)
    ]
    rng.shuffle(venue_draws)
    externals = max(1, shape.papers // 4)

    papers = []
    for n, venue in enumerate(venue_draws):
        home = programs[rng.randrange(len(programs))].faculty
        authors = [rng.choice(home)]
        for _ in range(rng.randint(1, 5) - 1):
            draw = rng.random()
            if draw < EXTERNAL_SHARE:
                author = f"x{rng.randrange(externals):06d}"
            elif draw < EXTERNAL_SHARE + CROSS_PROGRAM_SHARE:
                author = rng.choice(programs[rng.randrange(len(programs))].faculty)
            else:
                author = rng.choice(home)
            if author not in authors:
                authors.append(author)
        papers.append(Paper(f"p{n:07d}", venue, rng.randint(2000, 2019), tuple(authors)))

    for program in programs[: shape.reference]:
        papers.append(
            Paper(f"hub-{program.program_id}", HUB_VENUE, 2010, (program.faculty[0],))
        )
    return Corpus(tuple(programs), tuple(papers))


def write(corpus: Corpus, directory: Path) -> tuple[Path, Path]:
    """Write the CLI's two input files; return (publications, rosters)."""
    directory.mkdir(parents=True, exist_ok=True)
    pubs = directory / "publications.jsonl"
    rosters = directory / "rosters.json"
    pubs.write_text(
        "".join(
            json.dumps(
                {"id": p.paper_id, "venue": p.venue, "year": p.year, "authors": list(p.authors)}
            )
            + "\n"
            for p in corpus.papers
        ),
        encoding="utf-8",
    )
    rosters.write_text(
        json.dumps(
            {
                "programs": [
                    {"id": p.program_id, "role": p.role, "faculty": list(p.faculty)}
                    for p in corpus.programs
                ]
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    return pubs, rosters
