"""Toy-scale tests of the benchmark harness.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import pytest

import calib
import gen
import run
import verify
from run import Worker, Workload

TOY = gen.Shape(papers=300, reference=4, candidates=5, venues=40, faculty=(3, 6))
SEED = 7  # not the default seed, so no recorded digest applies


@pytest.fixture
def toy_files(tmp_path):
    corpus = gen.generate(TOY, SEED)
    pubs, rosters = gen.write(corpus, tmp_path)
    return corpus, pubs, rosters


@pytest.fixture
def worker(tmp_path):
    w = Worker(tmp_path)
    yield w
    w.kill()


def cli_output(worker, command, pubs, rosters) -> str:
    reply = worker.run([*command, "--pubs", str(pubs), "--rosters", str(rosters)],
                       want_stdout=True)
    assert reply["code"] == 0
    return reply["stdout"]


def run_main(monkeypatch, workload: Workload, trace: int) -> dict:
    monkeypatch.setitem(run.WORKLOADS, "toy", workload)
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "IMPORTTIME_REPS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "toy", "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_generator_is_deterministic_per_seed(tmp_path):
    first = gen.generate(TOY, SEED)
    assert gen.generate(TOY, SEED) == first
    assert gen.generate(TOY, SEED + 1) != first
    a = gen.write(first, tmp_path / "a")
    b = gen.write(gen.generate(TOY, SEED), tmp_path / "b")
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


def test_generator_shape():
    corpus = gen.generate(TOY, SEED)
    references = [p for p in corpus.programs if p.role == "reference"]
    assert len(references) == TOY.reference
    assert len(corpus.programs) == TOY.reference + TOY.candidates
    hub = [paper for paper in corpus.papers if paper.venue == gen.HUB_VENUE]
    assert sorted(paper.authors[0] for paper in hub) == sorted(p.faculty[0] for p in references)
    for paper in corpus.papers:
        assert 1 <= len(paper.authors) <= 5
        assert len(set(paper.authors)) == len(paper.authors)


def test_verifier_accepts_real_output_and_rejects_corrupted(worker, toy_files):
    corpus, pubs, rosters = toy_files
    counts = cli_output(worker, ["counts"], pubs, rosters)
    rank = cli_output(worker, ["rank"], pubs, rosters)
    stability = cli_output(worker, ["stability", "--k", "4"], pubs, rosters)
    assert verify.check_counts(counts, corpus) == []
    assert verify.check_rank(rank, corpus) == []
    assert verify.check_stability(stability, 4) == []

    totals = verify.program_totals(corpus)
    pid = next(iter(totals))
    line = f"{pid}\treference\t{totals[pid]:.6f}\t{totals[pid]}/1"
    assert line in counts
    corrupted = counts.replace(line, f"{pid}\treference\t{totals[pid]:.6f}\t{totals[pid] + 1}/1")
    assert verify.check_counts(corrupted, corpus)

    rows = rank.splitlines()
    top = rows[1].split("\t")
    top[3] = "0.999999"
    assert verify.check_rank("\n".join([rows[0], "\t".join(top), *rows[2:]]), corpus)
    swapped = "\n".join([rows[0], rows[2], rows[1], *rows[3:]])
    assert verify.check_rank(swapped, corpus)

    rho_row = stability.splitlines()[1].split("\t")
    bad = stability.replace("\t".join(rho_row), f"{rho_row[0]}\t1.500000\t150.00%")
    assert verify.check_stability(bad, 4)
    assert verify.check_stability(stability, 5)


def test_traced_self_times_add_up_to_at_most_the_wall(worker, toy_files):
    _, pubs, rosters = toy_files
    reply = worker.run(["stability", "--k", "4", "--pubs", str(pubs), "--rosters", str(rosters)],
                       trace=True)
    assert reply["code"] == 0
    trace = reply["trace"]
    assert trace["errors"] == []
    self_times = {k: v for k, v in trace["metrics"].items() if k.endswith(".self_s")}
    assert all(value >= 0 for value in self_times.values())
    assert sum(self_times.values()) <= trace["command_s"] + 1e-9
    assert trace["command_s"] <= reply["wall"]
    assert trace["metrics"]["counts.build_counts.calls"] == 4
    assert trace["metrics"]["corpus.check_structure.calls"] == 5


def test_tracing_leaves_output_unchanged_and_is_removed(worker, toy_files):
    _, pubs, rosters = toy_files
    argv = ["rank", "--pubs", str(pubs), "--rosters", str(rosters)]
    plain = worker.run(argv)
    traced = worker.run(argv, trace=True)
    again = worker.run(argv)
    assert plain["sha256"] == traced["sha256"] == again["sha256"]
    assert "trace" not in again


def test_calibration_fills_the_requested_time():
    start = time.perf_counter()
    per_pass = calib.measure(0.3)
    elapsed = time.perf_counter() - start
    assert elapsed >= 0.3
    assert 0 < per_pass <= elapsed


def test_failing_command_is_counted_not_dropped(monkeypatch):
    # More prefixes than reference programs: every repetition exits with code 1.
    failing = Workload(TOY, ("stability", "--k", str(TOY.reference + 1)))
    result = run_main(monkeypatch, failing, trace=0)
    assert result["correct"] is False
    assert result["attempted"] >= run.MIN_REPS + 1
    assert result["failed"] == result["attempted"]


def test_end_to_end_run_reports_every_metric(monkeypatch):
    result = run_main(monkeypatch, Workload(TOY, ("rank",)), trace=0)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(monkeypatch):
    result = run_main(monkeypatch, Workload(TOY, ("stability", "--k", "3")), trace=1)
    assert result["correct"] is True
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["counts.build_counts.calls"] == 3
    assert metrics["analysis.prefixes"] == 3
    assert metrics["reputation.models"] == 3
    assert metrics["corpus.records"] == TOY.papers + TOY.reference


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
