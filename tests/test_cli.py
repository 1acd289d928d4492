from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rscore import parse_corpus, serialize_publications, serialize_rosters
from rscore.cli import _COMMANDS, _emit, _Table, run

from helpers import random_corpus


@pytest.fixture()
def walkthrough_args(fixture_dir):
    return [
        "--pubs", str(fixture_dir / "publications.jsonl"),
        "--rosters", str(fixture_dir / "rosters.json"),
    ]


def test_validate_summary(walkthrough_args, capsys):
    assert run(["validate", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert out == (
        "publications=20\treference_programs=2\tcandidate_programs=2"
        "\tvenues=3\tdropped_outside_window=0\n"
    )


def test_validate_json(walkthrough_args, capsys):
    assert run(["validate", "--json", *walkthrough_args]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["publications"] == 20
    assert payload["venues"] == 3


def test_counts_sections_and_exact_column(walkthrough_args, capsys):
    assert run(["counts", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert "# venue_totals\tmode=per-program" in out
    assert "beta\t6.000000\t6/1" in out
    assert "north\tn.adams\talpha\t2.500000\t5/2" in out
    assert "north\tn.clark\tbeta\t1.500000\t3/2" in out


def test_counts_distinct_mode(walkthrough_args, capsys):
    assert run(["counts", "--venue-mode", "distinct", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert "beta\t4.000000\t4/1" in out


def test_venues_sorted_by_reputation(walkthrough_args, capsys):
    assert run(["venues", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert out == "venue\tnu\nbeta\t1.000000\nalpha\t0.833333\ngamma\t0.500000\n"


def test_venues_dump_matrices(walkthrough_args, capsys):
    assert run(["venues", "--dump-matrices", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    for section in ("# program_index", "# venue_index", "# alpha", "# beta",
                    "# p_prime", "# gamma", "# nu"):
        assert section in out
    assert "0.46666666666666662" in out


def test_rank_walkthrough(walkthrough_args, capsys):
    assert run(["rank", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("program_id\tfaculty_count\traw_score")
    assert lines[1] == "east\t1\t4.166667\t1.000000\t1.000000\t1\t1"
    assert lines[2] == "west\t1\t2.000000\t0.480000\t0.480000\t2\t2"


def test_rank_json_includes_digest(walkthrough_args, capsys):
    assert run(["rank", "--json", *walkthrough_args]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["program_id"] == "east"
    assert payload["rows"][0]["r_score"] == 1.0
    assert len(payload["model_digest"]) == 16
    assert payload["zero_scores"] is False


def test_digest_not_in_tsv_output(walkthrough_args, capsys):
    assert run(["rank", *walkthrough_args]) == 0
    first = capsys.readouterr().out
    assert run(["rank", "--json", *walkthrough_args]) == 0
    digest = json.loads(capsys.readouterr().out)["model_digest"]
    assert digest not in first


@pytest.mark.parametrize("command", ["rank", "venues"])
def test_only_json_runs_hash_the_model(walkthrough_args, monkeypatch, capsys, command):
    # the digest is printed only in the JSON document
    from rscore import ReputationModel

    reads = []
    digest = ReputationModel.digest.fget
    monkeypatch.setattr(
        ReputationModel, "digest", property(lambda model: reads.append(1) or digest(model))
    )
    assert run([command, *walkthrough_args]) == 0
    assert reads == []
    capsys.readouterr()
    assert run([command, "--json", *walkthrough_args]) == 0
    assert reads == [1]
    assert len(json.loads(capsys.readouterr().out)["model_digest"]) == 16


def test_stability_walkthrough(walkthrough_args, capsys):
    assert run(["stability", "--k", "2", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "comparison\trho\tagreement_pct",
        "R_Top(1) versus R_Top(2)\t1.000000\t100.00%",
        "R_Top(1) versus R_Top(2)\t1.000000\t100.00%",
    ]


def test_stability_defaults_to_all_reference_programs(walkthrough_args, capsys):
    assert run(["stability", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert "R_Top(1) versus R_Top(2)" in out


def test_stability_too_large_k_is_data_error(walkthrough_args, capsys):
    assert run(["stability", "--k", "10", *walkthrough_args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need 10 reference programs, found 2" in captured.err


def test_stability_k_zero_is_usage_error(walkthrough_args, capsys):
    assert run(["stability", "--k", "0", *walkthrough_args]) == 2
    assert capsys.readouterr().out == ""


def test_stability_k_not_an_integer_names_the_option(walkthrough_args, capsys):
    assert run(["stability", "--k", "x", *walkthrough_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --k: must be an integer, got 'x'" in captured.err
    assert "_positive_int" not in captured.err


def test_compare_walkthrough(walkthrough_args, fixture_dir, capsys):
    assert run([
        "compare", "--grades", str(fixture_dir / "grades.tsv"), *walkthrough_args
    ]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "program_id\tr_score\tgrade",
        "east\t1.000000\t7",
        "west\t0.480000\t6",
        "# spearman",
        "rho\t1.000000",
        "agreement_pct\t100.00%",
    ]


def test_compare_degenerate_grades(walkthrough_args, tmp_path, capsys):
    grades = tmp_path / "grades.tsv"
    grades.write_text("east\t5\nwest\t5\n", encoding="utf-8")
    assert run(["compare", "--grades", str(grades), *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert "rho\tdegenerate" in out


def test_compare_malformed_grades(walkthrough_args, tmp_path, capsys):
    grades = tmp_path / "grades.tsv"
    grades.write_text("east only\n", encoding="utf-8")
    assert run(["compare", "--grades", str(grades), *walkthrough_args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grades.tsv:1" in captured.err


def test_compare_names_grades_that_match_no_candidate(walkthrough_args, tmp_path, capsys):
    # a mistyped id used to read as an ungraded program, without notice
    grades = tmp_path / "grades.tsv"
    grades.write_text("east\t7\nwe st\t6\nnowhere\t9\n", encoding="utf-8")
    assert run(["compare", "--grades", str(grades), *walkthrough_args]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "program_id\tr_score\tgrade", "east\t1.000000\t7", "# spearman", "rho\tdegenerate"
    ]
    assert captured.err == "warning: grades for no candidate program: 'we st', 'nowhere'\n"


def test_compare_warns_only_about_unmatched_grades(walkthrough_args, fixture_dir, capsys):
    grades = ["--grades", str(fixture_dir / "grades.tsv")]
    assert run(["compare", *grades, *walkthrough_args]) == 0
    assert capsys.readouterr().err == ""


def test_compare_reads_grades_before_the_corpus(walkthrough_args, tmp_path, monkeypatch, capsys):
    import rscore.cli

    parsed = []
    parse = rscore.cli.parse_corpus
    monkeypatch.setattr(
        rscore.cli, "parse_corpus", lambda *args: parsed.append(1) or parse(*args)
    )
    grades = tmp_path / "grades.tsv"
    grades.write_text("east\tnotanumber\n", encoding="utf-8")
    assert run(["compare", "--grades", str(grades), *walkthrough_args]) == 1
    assert capsys.readouterr().err == (
        f"error: {grades}:1: grade must be a number, got 'notanumber'\n"
    )
    assert parsed == []


def test_compare_rejects_grades_byte_order_mark(walkthrough_args, fixture_dir, tmp_path, capsys):
    # read as text, the mark would become part of the first program id
    grades = tmp_path / "grades.tsv"
    grades.write_bytes(b"\xef\xbb\xbf" + (fixture_dir / "grades.tsv").read_bytes())
    assert run(["compare", "--grades", str(grades), *walkthrough_args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {grades}:1: unexpected UTF-8 byte order mark\n"


@pytest.mark.parametrize("separator", ["\x1c", "\x85", "\u2028"])
def test_compare_grades_line_ends_only_at_newline(fixture_dir, tmp_path, separator, capsys):
    # str.splitlines would also end a line at these; a roster id may hold them
    east = f"ea{separator}st"
    rosters = json.loads((fixture_dir / "rosters.json").read_text(encoding="utf-8"))
    rosters["programs"][2]["id"] = east
    (tmp_path / "rosters.json").write_text(json.dumps(rosters), encoding="utf-8")
    grades = tmp_path / "grades.tsv"
    grades.write_text(f"{east}\t7\r\nwest\t6\n", encoding="utf-8", newline="")
    assert run([
        "compare", "--grades", str(grades),
        "--pubs", str(fixture_dir / "publications.jsonl"),
        "--rosters", str(tmp_path / "rosters.json"),
    ]) == 0
    assert capsys.readouterr().out.split("\n")[1:3] == [
        f"{east}\t1.000000\t7", "west\t0.480000\t6"
    ]


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    assert capsys.readouterr().out == ""


def test_missing_required_flag_is_usage_error(capsys):
    assert run(["validate"]) == 2
    assert capsys.readouterr().out == ""


def test_data_error_prints_to_stderr_only(tmp_path, fixture_dir, capsys):
    pubs = tmp_path / "bad.jsonl"
    pubs.write_text("this is not json\n", encoding="utf-8")
    code = run([
        "validate", "--pubs", str(pubs),
        "--rosters", str(fixture_dir / "rosters.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "line 1" in captured.err


def test_missing_file_is_data_error(fixture_dir, capsys):
    code = run([
        "validate", "--pubs", "/nonexistent/pubs.jsonl",
        "--rosters", str(fixture_dir / "rosters.json"),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_year_window_flags(walkthrough_args, capsys):
    assert run(["validate", "--from", "2009", "--to", "2010", *walkthrough_args]) == 0
    out = capsys.readouterr().out
    assert "publications=14" in out
    assert "dropped_outside_window=6" in out


def test_every_run_warns_on_its_own_stderr_about_window_drops(walkthrough_args):
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["validate", "--from", "2009", "--to", "2010", *walkthrough_args]) == 0
        assert err.getvalue() == (
            "warning: dropped 6 publication record(s) outside year window [2009, 2010]\n"
        )


def test_one_sided_window_is_usage_error(walkthrough_args, capsys):
    assert run(["validate", "--from", "2009", *walkthrough_args]) == 2
    assert capsys.readouterr().out == ""


def test_inverted_window_is_usage_error(walkthrough_args, capsys):
    assert run(["validate", "--from", "2010", "--to", "2009", *walkthrough_args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err


def test_outputs_are_byte_identical_across_runs(walkthrough_args, capsys):
    outputs = []
    for _ in range(2):
        for argv in (
            ["counts", *walkthrough_args],
            ["venues", *walkthrough_args],
            ["rank", *walkthrough_args],
            ["rank", "--json", *walkthrough_args],
            ["stability", "--k", "2", *walkthrough_args],
        ):
            assert run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_rank_without_candidates(tmp_path, capsys):
    corpus = random_corpus(np.random.default_rng(1), n_cand=0)
    pubs = tmp_path / "pubs.jsonl"
    rosters = tmp_path / "rosters.json"
    pubs.write_text(serialize_publications(corpus), encoding="utf-8")
    rosters.write_text(serialize_rosters(corpus), encoding="utf-8")
    code = run(["rank", "--pubs", str(pubs), "--rosters", str(rosters)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "no candidate programs" in captured.err


def test_module_entry_point(fixture_dir):
    result = subprocess.run(
        [
            sys.executable, "-m", "rscore", "venues",
            "--pubs", str(fixture_dir / "publications.jsonl"),
            "--rosters", str(fixture_dir / "rosters.json"),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1] == "beta\t1.000000"


def _run_cli(argv, timeout=20, env=None):
    """The CLI in a fresh interpreter, so that a hang fails instead of stalling."""
    return subprocess.run(
        [sys.executable, "-m", "rscore", *argv],
        capture_output=True, text=True, check=False, timeout=timeout, env=env,
    )


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((_CPUS or 1) < 2, reason="one CPU: BLAS cannot run on two threads here")
def test_stability_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 60 candidates x 1,500 venues x 40 reference rows is far past the size
    # at which OpenBLAS splits a product over its threads
    corpus = random_corpus(np.random.default_rng(31), n_ref=40, n_cand=60, n_venues=1500,
                           n_papers=20000, hub=True)
    pubs, rosters = tmp_path / "pubs.jsonl", tmp_path / "rosters.json"
    pubs.write_text(serialize_publications(corpus), encoding="utf-8")
    rosters.write_text(serialize_rosters(corpus), encoding="utf-8")
    argv = ["stability", "--json", "--pubs", str(pubs), "--rosters", str(rosters)]
    outputs = []
    for threads in ("1", "2"):
        result = _run_cli(argv, timeout=60, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_venues_orders_exact_ties_by_id(tmp_path, capsys):
    # v32, v34 and v37 of the golden random corpus all have reputation 19/27
    # exactly; their floats differ in the last bit
    from test_golden import _random_corpus

    corpus = _random_corpus()
    pubs, rosters = tmp_path / "pubs.jsonl", tmp_path / "rosters.json"
    pubs.write_text(serialize_publications(corpus), encoding="utf-8")
    rosters.write_text(serialize_rosters(corpus), encoding="utf-8")
    assert run(["venues", "--pubs", str(pubs), "--rosters", str(rosters)]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    tied = [position for position, (_, nu) in enumerate(rows) if nu == "0.703704"]
    assert [rows[position][0] for position in tied] == ["v32", "v34", "v37"]
    assert tied == list(range(tied[0], tied[0] + 3))


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_subcommand_in_a_fresh_interpreter(walkthrough_args, fixture_dir, capsys, command):
    argv = [command, *walkthrough_args]
    if command == "compare":
        argv += ["--grades", str(fixture_dir / "grades.tsv")]
    result = _run_cli(argv)
    assert result.returncode == 0, result.stderr
    assert run(argv) == 0
    assert result.stdout == capsys.readouterr().out


@pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
def test_compare_rejects_non_finite_grade(walkthrough_args, tmp_path, bad):
    grades = tmp_path / "grades.tsv"
    grades.write_text(f"east\t7\nwest\t{bad}\n", encoding="utf-8")
    result = _run_cli(["compare", "--grades", str(grades), *walkthrough_args])
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"error: {grades}:2: grade must be finite, got {bad!r}"
    ]


@pytest.mark.parametrize("which", ["pubs", "rosters", "grades"])
def test_non_utf8_input_is_data_error(fixture_dir, tmp_path, capsys, which):
    paths = {
        "pubs": fixture_dir / "publications.jsonl",
        "rosters": fixture_dir / "rosters.json",
        "grades": fixture_dir / "grades.tsv",
    }
    broken = tmp_path / paths[which].name
    data = paths[which].read_bytes().split(b"\n")
    data[1] = data[1] + b"\xff"
    broken.write_bytes(b"\n".join(data))
    paths[which] = broken
    code = run([
        "compare", "--pubs", str(paths["pubs"]), "--rosters", str(paths["rosters"]),
        "--grades", str(paths["grades"]),
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {broken}:2: not valid UTF-8: invalid start byte"
    ]


def test_deeply_nested_json_is_data_error(fixture_dir, tmp_path, capsys):
    lines = (fixture_dir / "publications.jsonl").read_text(encoding="utf-8").splitlines()
    lines.insert(2, "[" * 100_000 + "]" * 100_000)
    pubs = tmp_path / "pubs.jsonl"
    pubs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rosters = tmp_path / "rosters.json"
    rosters.write_text('{"programs": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    good_rosters = str(fixture_dir / "rosters.json")
    good_pubs = str(fixture_dir / "publications.jsonl")
    for argv, message in (
        (["--pubs", str(pubs), "--rosters", good_rosters],
         "error: publications line 3: malformed record: nested too deeply"),
        (["--pubs", good_pubs, "--rosters", str(rosters)],
         "error: rosters document: malformed JSON: nested too deeply"),
    ):
        assert run(["validate", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


def test_tsv_report_is_written_in_blocks_that_make_one_text(monkeypatch):
    rows = [(i, i / 7) for i in range(10_000)]
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": staticmethod(writes.append)}))
    _emit(argparse.Namespace(json=False), {
        "a": _Table("n x", "%d\t%.6f", iter(rows), "# a"),
        "skipped": 3,
        "b": _Table("k", "%s", [("z",)]),
    }, ["# tail"])
    lines = ["# a", "n\tx", *("%d\t%.6f" % row for row in rows), "k", "z", "# tail"]
    assert "".join(writes) == "\n".join(lines) + "\n"
    # no write holds the whole report
    assert 2 < len(writes) and max(map(len, writes)) < len("".join(writes)) / 2


def test_per_faculty_table_built_only_by_counts(walkthrough_args, fixture_dir, monkeypatch, capsys):
    # counts streams its rows from the tallies; the Fraction mapping is for library callers
    from rscore import CountsTable

    built = []
    tallies = CountsTable._faculty_tallies
    monkeypatch.setattr(CountsTable, "_faculty_tallies",
                        lambda table: built.append("tallies") or tallies(table))
    mapping = CountsTable.__dict__["per_faculty_venue"].func
    monkeypatch.setattr(CountsTable, "per_faculty_venue",
                        property(lambda table: built.append("mapping") or mapping(table)))
    grades = ["--grades", str(fixture_dir / "grades.tsv")]
    for argv in (["validate"], ["venues"], ["venues", "--dump-matrices"], ["rank"],
                 ["stability"], ["compare", *grades]):
        assert run([*argv, *walkthrough_args]) == 0
    assert built == []
    for argv in (["counts"], ["counts", "--json"]):
        assert run([*argv, *walkthrough_args]) == 0
        assert built == ["tallies"]
        built.clear()
    capsys.readouterr()


def test_no_command_builds_publication_records(walkthrough_args, fixture_dir, monkeypatch, capsys):
    # the pipeline reads the corpus columns; records are built only when read
    from rscore import PublicationRecord

    built = []
    original = PublicationRecord.__init__
    monkeypatch.setattr(
        PublicationRecord, "__init__",
        lambda record, *args: built.append(1) or original(record, *args),
    )
    grades = ["--grades", str(fixture_dir / "grades.tsv")]
    for argv in (["validate"], ["counts"], ["counts", "--json"], ["venues"], ["rank"],
                 ["stability"], ["compare", *grades]):
        assert run([*argv, *walkthrough_args]) == 0, argv
    assert built == []
    capsys.readouterr()
    corpus = parse_corpus(
        (fixture_dir / "publications.jsonl").read_text(encoding="utf-8"),
        (fixture_dir / "rosters.json").read_text(encoding="utf-8"),
    )
    serialize_publications(corpus)
    assert built == []
    assert len(corpus.publications) == 20
    assert len(built) == 20


def test_one_command_makes_one_reference_venue_pass(walkthrough_args, monkeypatch, capsys):
    from rscore import Corpus

    passes = []
    prop = Corpus.__dict__["_reference_venues"]
    original = prop.func
    monkeypatch.setattr(prop, "func", lambda corpus: passes.append(1) or original(corpus))
    for argv in (["validate"], ["counts"], ["venues"], ["rank"], ["stability"]):
        passes.clear()
        assert run([*argv, *walkthrough_args]) == 0
        assert passes == [1], argv
    capsys.readouterr()


def _record(**changes):
    record = {"id": "p1", "venue": "v1", "year": 2010, "authors": ["a1"]}
    record.update(changes)
    return json.dumps(record)


def _program(**changes):
    program = {"id": "r2", "role": "reference", "faculty": ["b1"]}
    program.update(changes)
    return program


def _rosters_with(*extra):
    first = {"id": "r1", "role": "reference", "faculty": ["a1"]}
    return json.dumps({"programs": [first, *extra]})


# One bad second line per publication rule, and the error line it gives.
# Every message but the duplicate-key, digit-limit and Unicode ones was
# recorded before the fast parser existed.
PUBLICATION_REJECTIONS = [
    ("not json", "publications line 2: malformed record: Expecting value"),
    (_record() + " x", "publications line 2: malformed record: Extra data"),
    ("\ufeff" + _record(),
     "publications line 2: malformed record: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ('{"id": "p1', "publications line 2: malformed record: Unterminated string starting at"),
    ("[" * 100_000, "publications line 2: malformed record: nested too deeply"),
    ("[1, 2]", "publications line 2: expected an object, got list"),
    ('"p1"', "publications line 2: expected an object, got str"),
    (_record(citations=3), "publications line 2: unknown keys ['citations']"),
    ('{"id": "p1", "venue": "v1", "year": 2010}', "publications line 2: missing keys ['authors']"),
    (_record(id=5), "publications line 2: publication id must be a string, got 5"),
    (_record(id="  "), "publications line 2: empty publication id"),
    (_record(id=" p0"), "publications line 2: duplicate publication id 'p0'"),
    (_record(venue=None), "publications line 2: venue id must be a string, got None"),
    (_record(venue=""), "publications line 2: empty venue id"),
    (_record(year=True), "publications line 2: year must be an integer, got True"),
    (_record(year=2010.0), "publications line 2: year must be an integer, got 2010.0"),
    (_record(year="2010"), "publications line 2: year must be an integer, got '2010'"),
    ('{"id": "p1", "venue": "v1", "year": NaN, "authors": ["a1"]}',
     "publications line 2: year must be an integer, got nan"),
    (_record(authors="a1"), "publications line 2: authors must be an array"),
    (_record(authors=[]), "empty author list in record 'p1' (publications line 2)"),
    (_record(authors=["a1", 7]), "publications line 2: author id must be a string, got 7"),
    (_record(authors=["a1", " "]), "publications line 2: empty author id"),
    (_record(authors=["a1", " a1"]), "duplicate author within record 'p1' (publications line 2)"),
    (_record(id="p\udc00"), "publications line 2: publication id is not valid Unicode"),
    (_record(venue="v\ud800"), "publications line 2: venue id is not valid Unicode"),
    (_record(authors=["a1", "\ude00\ud83d"]),
     "publications line 2: author id is not valid Unicode"),
    ('{"id": "p1", "id": "p2", "venue": "v1", "year": 2010, "authors": ["a1"]}',
     "publications line 2: duplicate key 'id'"),
    ('{"id": "p1", "venue": "v1", "year": ' + "9" * 5000 + ', "authors": ["a1"]}',
     "publications line 2: malformed record: Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
     "increase the limit"),
]

# One bad rosters document per rule, with publications that are fine.
ROSTER_REJECTIONS = [
    ("{", "rosters document: malformed JSON: Expecting property name enclosed in double quotes"),
    ("[" * 100_000, "rosters document: malformed JSON: nested too deeply"),
    ("[]", "rosters document must be an object with a 'programs' array"),
    (json.dumps({"programs": [], "x": 1}),
     "rosters document must be an object with a 'programs' array"),
    (json.dumps({"programs": {}}), "rosters 'programs' must be an array"),
    (_rosters_with(3), "rosters program #2: expected an object"),
    (_rosters_with(_program(size=3)), "rosters program #2: unknown keys ['size']"),
    (_rosters_with({"id": "r2", "role": "reference"}),
     "rosters program #2: missing keys ['faculty']"),
    (_rosters_with(_program(id=4)), "rosters program #2: program id must be a string, got 4"),
    (_rosters_with(_program(id=" ")), "rosters program #2: empty program id"),
    (_rosters_with(_program(role="observer")),
     "rosters program #2: role must be 'reference' or 'candidate', got 'observer'"),
    (_rosters_with(_program(faculty="b1")), "rosters program #2: faculty must be an array"),
    (_rosters_with(_program(faculty=[])), "empty roster for program 'r2' (rosters program #2)"),
    (_rosters_with(_program(faculty=[None])),
     "rosters program #2: author id must be a string, got None"),
    (_rosters_with(_program(faculty=["b1", "b1 "])),
     "rosters program #2: duplicate faculty member in 'r2'"),
    (_rosters_with(_program(id="r\udfff")),
     "rosters program #2: program id is not valid Unicode"),
    (_rosters_with(_program(faculty=["b1", "b\ud800"])),
     "rosters program #2: author id is not valid Unicode"),
    (_rosters_with(_program(rank_hint=1.5)), "rosters program #2: rank_hint must be an integer"),
    (_rosters_with(_program(rank_hint=0)), "rosters program #2: rank_hint must be >= 1, got 0"),
    (_rosters_with(_program(id="r1")), "duplicate program id 'r1'"),
    (_rosters_with(_program(id="r1", role="candidate")), "duplicate program id 'r1'"),
    (_rosters_with(_program(faculty=["a1"])),
     "faculty member 'a1' appears in both 'r1' and 'r2'"),
    (json.dumps({"programs": [{"id": "r1", "role": "reference", "faculty": ["z9"]}]}),
     "no publication by reference-program faculty; the venue set is empty"),
    ('{"programs": [{"id": "r1", "role": "reference", "faculty": ["a1"], "role": "candidate"}]}',
     "rosters document: duplicate key 'role'"),
]


@pytest.mark.parametrize(
    ("pubs", "rosters", "message"),
    [pytest.param(_record(id="p0") + "\n" + line + "\n", _rosters_with(), message,
                  id=f"publications {number}")
     for number, (line, message) in enumerate(PUBLICATION_REJECTIONS)]
    + [pytest.param(_record(id="p0") + "\n", rosters, message, id=f"rosters {number}")
       for number, (rosters, message) in enumerate(ROSTER_REJECTIONS)],
)
def test_validate_rejection_messages(tmp_path, capsys, pubs, rosters, message):
    (tmp_path / "pubs.jsonl").write_text(pubs, encoding="utf-8")
    (tmp_path / "rosters.json").write_text(rosters, encoding="utf-8")
    code = run(["validate", "--pubs", str(tmp_path / "pubs.jsonl"),
                "--rosters", str(tmp_path / "rosters.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
