"""Fixed pure-Python calibration loop that measures how fast the host runs now.

The benchmark's host shares a physical core with other tenants, so the same
command takes anywhere from 1x to 2x its quiet-core time. The loop below
does the same kinds of work as the pipeline on fixed inputs: JSON decoding,
frozenset intersections, dict updates, Fraction sums, and TSV formatting.
Its time therefore moves with the host the way the command's time does.

The host's speed changes within a second, so a short sample of it is noisy.
The harness therefore repeats the loop for as long as the repetition it
brackets took: calibration and command get equal shares of the run, and
the mean time per pass before and after a repetition is its normaliser.

This module never imports ``rscore``, so a change to the program cannot
change the calibration.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

_PEOPLE = 20_000
_RECORDS = 2_500
_ROSTERS = 24


def _inputs() -> tuple[str, tuple[frozenset[str], ...]]:
    rng = random.Random(20131)
    people = [f"a{i:05d}" for i in range(_PEOPLE)]
    records = [
        {
            "id": f"c{n:06d}",
            "venue": f"v{rng.randrange(1500):04d}",
            "year": 2000 + rng.randrange(20),
            "authors": rng.sample(people, rng.randint(1, 5)),
        }
        for n in range(_RECORDS)
    ]
    document = "\n".join(json.dumps(record) for record in records)
    # Rosters cover every third person, so most records meet one or two of them.
    step = _PEOPLE // _ROSTERS
    rosters = tuple(
        frozenset(people[i * step : (i + 1) * step : 3]) for i in range(_ROSTERS)
    )
    return document, rosters


_DOCUMENT, _ROSTER_SETS = _inputs()


def workload() -> str:
    """One pass of the calibration work; returns its output so it is consumed."""
    totals: dict[tuple[int, str, str], Fraction] = {}
    for line in _DOCUMENT.split("\n"):
        record = json.loads(line)
        authors = frozenset(record["authors"])
        for index, roster in enumerate(_ROSTER_SETS):
            members = authors & roster
            if members:
                share = Fraction(1, len(members))
                for member in members:
                    key = (index, member, record["venue"])
                    totals[key] = totals.get(key, Fraction(0)) + share
    return "\n".join(
        f"{index}\t{member}\t{venue}\t{float(value):.6f}\t{value.numerator}/{value.denominator}"
        for (index, member, venue), value in sorted(totals.items())
    )


def measure(seconds: float) -> float:
    """Mean wall seconds per calibration pass, over the passes (at least one)
    that fill ``seconds``."""
    passes = 0
    start = time.perf_counter()
    while True:
        if not workload():
            raise RuntimeError("calibration produced no work")
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / passes
