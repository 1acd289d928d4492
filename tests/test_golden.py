"""Golden hashes of CLI output, recorded from the Fraction-based counting code.

Every subcommand runs in TSV and ``--json`` form, ``counts`` in both venue
modes, on the walkthrough fixture and on one seeded random corpus of about 2k
papers. A hash is the first 16 hex digits of the sha256 of stdout. The model
digests, in both modes, and the ``error:`` lines of failing stability
prefixes are pinned as text. The venue mode changes only the venue totals
that ``counts`` reports, so only ``counts`` takes ``--venue-mode``; the
other commands reject it, and print the same bytes when the library builds
their counts in either mode.
On that random corpus and three smaller seeded ones, the TSV and ``--json``
forms must carry the same tables: same names, headers and rows, in order.
The names the package exports, its runtime dependencies and the line count
of its sources are pinned too, so none grows or shrinks by accident.
Any change to counting, the model or formatting that alters one byte of
output fails here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

import rscore
import rscore.analysis
import rscore.cli
from rscore import (
    CountsTable,
    ProgramRoster,
    VenueMode,
    build_counts,
    build_reputation_model,
    parse_corpus,
    serialize_publications,
    serialize_rosters,
)
from rscore.cli import run

from helpers import make_corpus, random_corpus

COMMANDS = {
    "validate": ["validate"],
    "counts": ["counts"],
    "venues": ["venues"],
    "venues-dump": ["venues", "--dump-matrices"],
    "rank": ["rank"],
    "stability": ["stability"],
    "compare": ["compare"],
}
MODES = ("per-program", "distinct")
FORMATS = ("tsv", "json")
CORPORA = ("walkthrough", "random")
# Only counts takes a venue mode; the other commands' outputs are keyed by
# the mode their counts are built in, per-program.
CASES = [
    (corpus, command, mode, fmt)
    for corpus, command, mode, fmt in itertools.product(CORPORA, COMMANDS, MODES, FORMATS)
    if command == "counts" or mode == "per-program"
]

GOLDEN_STDOUT: dict[str, str] = {
    "walkthrough/validate/per-program/tsv": "4b892fc6a8519ea0",
    "walkthrough/validate/per-program/json": "b60cc04a5738c093",
    "walkthrough/counts/per-program/tsv": "373dee23b9bb47c4",
    "walkthrough/counts/per-program/json": "1ce4d95272f441fa",
    "walkthrough/counts/distinct/tsv": "e71b72afbb0f47c1",
    "walkthrough/counts/distinct/json": "0b8910308b241956",
    "walkthrough/venues/per-program/tsv": "1318fd53e9e79dc9",
    "walkthrough/venues/per-program/json": "1a22f42670110834",
    "walkthrough/venues-dump/per-program/tsv": "048033a604908812",
    "walkthrough/venues-dump/per-program/json": "048033a604908812",
    "walkthrough/rank/per-program/tsv": "e19cf67d98737486",
    "walkthrough/rank/per-program/json": "6c049a679cc02367",
    "walkthrough/stability/per-program/tsv": "276b802168ce828c",
    "walkthrough/stability/per-program/json": "f7e6463b57535e7a",
    "walkthrough/compare/per-program/tsv": "f89d947872ec2ee1",
    "walkthrough/compare/per-program/json": "757c21f1b7e15ca3",
    "random/validate/per-program/tsv": "05eb302c6e7d4bbf",
    "random/validate/per-program/json": "0e465cbc6b47a259",
    "random/counts/per-program/tsv": "d66b18341f0ad21f",
    "random/counts/per-program/json": "4ec5106fec3ab591",
    "random/counts/distinct/tsv": "9c23aee00e322532",
    "random/counts/distinct/json": "893e59f404578e9e",
    "random/venues/per-program/tsv": "55b6f90ff2a06c3b",
    "random/venues/per-program/json": "0fe271d93c1444a0",
    "random/venues-dump/per-program/tsv": "e9b8364e8a5b41f2",
    "random/venues-dump/per-program/json": "e9b8364e8a5b41f2",
    "random/rank/per-program/tsv": "a7aa0e574b0d35fe",
    "random/rank/per-program/json": "128c31727dd3460d",
    "random/stability/per-program/tsv": "bc3441e36455e57f",
    "random/stability/per-program/json": "a60faa5fecb1bdb7",
    "random/compare/per-program/tsv": "14abe89beda1a2c3",
    "random/compare/per-program/json": "78692b419f252442",
}

GOLDEN_DIGESTS: dict[tuple[str, str], str] = {
    ("walkthrough", "per-program"): "5f322b3e556dbf0c",
    ("walkthrough", "distinct"): "5f322b3e556dbf0c",
    ("random", "per-program"): "7cfaa5f158749015",
    ("random", "distinct"): "7cfaa5f158749015",
}

GOLDEN_ERRORS: dict[str, str] = {
    "empty-prefix": (
        'error: reference-set size 1: no publication by reference-program faculty; the venue set is empty'
    ),
    "silent-program": (
        "error: reference-set size 2: reference program 'silent' has no publications in the venue set; its transition row is undefined"
    ),
    "reducible": (
        'error: reference-set size 2: transition matrix is reducible; 2 strongly connected components: {0}; {1}'
    ),
}


def _random_corpus():
    return random_corpus(
        np.random.default_rng(2026), n_ref=8, n_cand=6, n_venues=40,
        n_papers=2000, hub=True,
    )


# Corpora whose stability sweep fails at some prefix, as (refs, cands, pubs).
FAILING_SWEEPS = {
    # the first reference program never publishes: size 1 has no venues
    "empty-prefix": (
        [("silent", ["z1"]), ("r1", ["a1"])],
        [("cand", ["c1"])],
        [("p1", "v1", 2010, ["a1"]), ("p2", "v1", 2010, ["c1"])],
    ),
    # the second reference program never publishes: its row is undefined
    "silent-program": (
        [("r1", ["a1"]), ("silent", ["z1"])],
        [("cand", ["c1"])],
        [("p1", "v1", 2010, ["a1"]), ("p2", "v2", 2010, ["c1"])],
    ),
    # r1 and r3 share v1, r2 publishes alone in v2: sizes 2 and 3 are reducible
    "reducible": (
        [("r1", ["a1"]), ("r2", ["b1"]), ("r3", ["c1"])],
        [("cand", ["d1"])],
        [
            ("p1", "v1", 2010, ["a1"]),
            ("p2", "v2", 2010, ["b1"]),
            ("p3", "v1", 2010, ["c1", "a1"]),
            ("p4", "v2", 2010, ["d1"]),
        ],
    ),
}


def _write(directory, corpus, grades):
    pubs = directory / "pubs.jsonl"
    rosters = directory / "rosters.json"
    grades_path = directory / "grades.tsv"
    pubs.write_text(serialize_publications(corpus), encoding="utf-8")
    rosters.write_text(serialize_rosters(corpus), encoding="utf-8")
    grades_path.write_text(grades, encoding="utf-8")
    return pubs, rosters, grades_path


def build_inputs(fixture_dir, mktemp):
    """Paths (pubs, rosters, grades) per corpus name."""
    paths = {
        "walkthrough": (
            fixture_dir / "publications.jsonl",
            fixture_dir / "rosters.json",
            fixture_dir / "grades.tsv",
        )
    }
    corpus = _random_corpus()
    grades = "".join(
        f"{roster.program_id}\t{(3 * index) % 4}\n"
        for index, roster in enumerate(corpus.candidate_programs)
    )
    paths["random"] = _write(mktemp("random"), corpus, grades)
    for name, (refs, cands, pubs) in FAILING_SWEEPS.items():
        paths[name] = _write(mktemp(name), make_corpus(pubs, refs, cands), "")
    return paths


@pytest.fixture(scope="module")
def inputs(fixture_dir, tmp_path_factory):
    return build_inputs(fixture_dir, tmp_path_factory.mktemp)


def _argv(inputs, corpus, command, mode, fmt):
    pubs, rosters, grades = inputs[corpus]
    argv = [*COMMANDS[command], "--pubs", str(pubs), "--rosters", str(rosters)]
    if command == "counts":
        argv += ["--venue-mode", mode]
    if command == "compare":
        argv += ["--grades", str(grades)]
    if fmt == "json":
        argv.append("--json")
    return argv


def _stdout_hash(inputs, capsys, corpus, command, mode, fmt):
    assert run(_argv(inputs, corpus, command, mode, fmt)) == 0
    out = capsys.readouterr().out
    return hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("corpus,command,mode,fmt", CASES)
def test_cli_stdout_matches_golden_hash(inputs, capsys, corpus, command, mode, fmt):
    key = f"{corpus}/{command}/{mode}/{fmt}"
    assert _stdout_hash(inputs, capsys, corpus, command, mode, fmt) == GOLDEN_STDOUT[key]


@pytest.mark.parametrize(
    "corpus,command,fmt",
    list(itertools.product(CORPORA, [c for c in COMMANDS if c != "counts"], FORMATS)),
)
def test_venue_mode_changes_only_counts_output(inputs, capsys, monkeypatch, corpus, command, fmt):
    # These commands take no --venue-mode; build the counts they read in each
    # mode through the library, and they must print the same bytes. validate
    # builds no counts at all.
    outputs = []
    for mode in VenueMode:
        calls = []

        def counts_in_mode(corpus, mode=mode):
            calls.append(mode)
            return build_counts(corpus, mode)

        monkeypatch.setattr(rscore.cli, "build_counts", counts_in_mode)
        monkeypatch.setattr(rscore.analysis, "build_counts", counts_in_mode)
        assert run(_argv(inputs, corpus, command, None, fmt)) == 0
        assert bool(calls) == (command != "validate")
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "counts"])
def test_venue_mode_is_rejected_outside_counts(inputs, capsys, command):
    argv = [*_argv(inputs, "walkthrough", command, None, "tsv"), "--venue-mode", "distinct"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --venue-mode distinct" in captured.err


@pytest.mark.parametrize("corpus,mode", list(itertools.product(CORPORA, MODES)))
def test_model_digest_matches_golden(inputs, corpus, mode):
    pubs, rosters, _ = inputs[corpus]
    parsed = parse_corpus(pubs.read_text(encoding="utf-8"), rosters.read_text(encoding="utf-8"))
    venue_mode = VenueMode.PER_PROGRAM if mode == "per-program" else VenueMode.DISTINCT_PAPER
    model = build_reputation_model(build_counts(parsed, venue_mode))
    assert model.digest == GOLDEN_DIGESTS[corpus, mode]


@pytest.mark.parametrize("corpus", FAILING_SWEEPS)
def test_failing_sweep_error_line_matches_golden(inputs, capsys, corpus):
    pubs, rosters, _ = inputs[corpus]
    assert run(["stability", "--pubs", str(pubs), "--rosters", str(rosters)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == [GOLDEN_ERRORS[corpus]]


# The JSON key of the one table each command prints without a "# name" line.
UNTITLED_TABLE = {"venues": "venues", "rank": "rows", "stability": "comparisons", "compare": "rows"}
TSV_ONLY_TABLES = {"spearman"}


@pytest.fixture(scope="module")
def table_inputs(inputs, tmp_path_factory):
    """The golden random corpus and three smaller seeded ones."""
    paths = {"random": inputs["random"]}
    for seed in (1, 2, 3):
        corpus = random_corpus(np.random.default_rng(seed), n_venues=20, n_papers=400, hub=True)
        grades = "".join(
            f"{roster.program_id}\t{index / 4}\n"
            for index, roster in enumerate(corpus.candidate_programs)
        )
        paths[f"seed{seed}"] = _write(tmp_path_factory.mktemp(f"seed{seed}"), corpus, grades)
    return paths


def _tsv_tables(text, untitled):
    """{name: [header, *rows]} of a TSV report; a "# name" line starts a table."""
    tables, rows = {}, None
    for line in text.splitlines():
        if line.startswith("# "):
            rows = tables[line[2:].split("\t")[0]] = []
        elif rows is None:
            rows = tables[untitled] = [line.split("\t")]
        else:
            rows.append(line.split("\t"))
    return tables


def _tsv_cell(key, value):
    if isinstance(value, float):
        return f"{value:g}" if key == "grade" else f"{value:.6f}"
    return str(value)


@pytest.mark.parametrize(
    "corpus,command",
    list(itertools.product(("random", "seed1", "seed2", "seed3"),
                           ("counts", "venues", "rank", "stability", "compare"))),
)
def test_tsv_and_json_carry_the_same_tables(table_inputs, capsys, corpus, command):
    text = {}
    for fmt in FORMATS:
        assert run(_argv(table_inputs, corpus, command, "per-program", fmt)) == 0
        text[fmt] = capsys.readouterr().out
    tsv = _tsv_tables(text["tsv"], UNTITLED_TABLE.get(command))
    payload = json.loads(text["json"])
    json_tables = {
        key: value for key, value in payload.items()
        if isinstance(value, list) and all(isinstance(row, dict) for row in value)
    }
    assert set(json_tables) == set(tsv) - TSV_ONLY_TABLES
    for name, rows in json_tables.items():
        header, *tsv_rows = tsv[name]
        assert rows, name
        assert all(list(row) == header for row in rows), name
        assert [[_tsv_cell(k, v) for k, v in row.items()] for row in rows] == tsv_rows, name


PUBLIC_API = [
    "AnalysisError",
    "ComparisonReport",
    "ComparisonRow",
    "Corpus",
    "CorpusError",
    "CountsError",
    "CountsTable",
    "DegenerateRankingError",
    "EmptyVenueSetError",
    "ModelError",
    "ProgramRoster",
    "PublicationRecord",
    "RScoreError",
    "ReducibleChainError",
    "ReputationModel",
    "ScoreReport",
    "ScoreRow",
    "ScoringError",
    "StabilityReport",
    "VenueMode",
    "build_counts",
    "build_reputation_model",
    "compare_rankings",
    "parse_corpus",
    "reference_venue_set",
    "score_programs",
    "serialize_publications",
    "serialize_rosters",
    "spearman",
    "stability_sweep",
    "stationary_gth",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 31
    assert sorted(rscore.__all__) == PUBLIC_API
    namespace: dict[str, object] = {}
    exec("from rscore import *", namespace)
    assert set(PUBLIC_API) <= set(namespace)


def test_counts_table_holds_only_its_corpus_count():
    # programs, venues, roster sizes and distinct totals are read from the corpus
    fields = [f.name for f in dataclasses.fields(CountsTable)]
    assert fields == ["corpus", "matrix", "venue_mode"]


def test_program_roster_records_no_role():
    # a roster's role is the corpus list that holds it
    fields = [f.name for f in dataclasses.fields(ProgramRoster)]
    assert fields == ["program_id", "faculty"]


def test_runtime_dependencies_are_pinned():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in dependencies]
    assert names == ["numpy"]


def test_source_line_count_is_pinned():
    # The count `wc -l src/rscore/*.py` prints; a change that grows or shrinks
    # the package updates it on purpose.
    package = Path(rscore.__file__).resolve().parent
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    assert lines == 1849
