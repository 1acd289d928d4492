"""Benchmark harness for the rscore CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rank-wide --seed 1 --seconds 25 --trace 0

The harness generates the workload's corpus from ``--seed``, starts one
worker process that imports ``rscore.cli`` and runs the workload's command
in-process, and times each repetition. This process never imports
``rscore``. Between repetitions it runs a fixed calibration loop
(``calib.py``) for as long as the repetition took, and it reports wall
times in reference seconds: raw wall x ``calib_ref_s`` / mean time per
calibration pass before and after the repetition.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. Lines before it, all
starting with ``#``, give the raw figures for audit. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import calib
import gen
import verify

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
SETUP_REPS = 5
IMPORTTIME_REPS = 3
MIN_REPS = 3
FIRST_CALIB_S = 1.0


@dataclass(frozen=True)
class Workload:
    shape: gen.Shape
    argv: tuple[str, ...]

    def check(self, text: str, corpus: gen.Corpus) -> list[str]:
        if self.argv[0] == "counts":
            return verify.check_counts(text, corpus)
        if self.argv[0] == "rank":
            return verify.check_rank(text, corpus)
        return verify.check_stability(text, int(self.argv[self.argv.index("--k") + 1]))


WORKLOADS = {
    "rank-wide": Workload(gen.Shape(12_000, 60, 240, 2_000, (8, 16)), ("rank",)),
    "stability-deep": Workload(gen.Shape(800, 30, 6, 800, (8, 16)), ("stability", "--k", "30")),
    "counts-tall": Workload(gen.Shape(25_000, 3, 3, 1_500, (30, 60)), ("counts",)),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SELF_TIMES = (
    "corpus.parse_corpus",
    "corpus.check_structure",
    "counts.build_counts",
    "reputation.build_transitions",
    "reputation.aggregate",
    "reputation.stationary_gth",
    "scoring.score_programs",
    "analysis.stability_sweep",
    "cli",
)
PER_LAYER = (
    "setup.import_numpy_s",
    "setup.import_scipy_s",
    "setup.import_rscore_s",
    *(f"{name}.self_s" for name in SELF_TIMES),
    *(f"{name}.share" for name in SELF_TIMES),
    "corpus.check_structure.calls",
    "corpus.reference_venue_set.calls",
    "corpus.records",
    "corpus.input_bytes",
    "counts.build_counts.calls",
    "counts.roster_probes",
    "counts.program_venue_cells",
    "counts.faculty_cells",
    "reputation.transition_cells",
    "reputation.gth_states",
    "reputation.models",
    "scoring.score_cells",
    "analysis.prefixes",
    "analysis.spearman.calls",
    "cli.stdout_bytes",
    "trace.command_s",
    "trace.overhead_s",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # PYTHONHASHSEED is not pinned: each run gets its own string hash layout,
    # so an output that depends on set or dict order misses the recorded
    # digest of the default seed.
    return env


class Worker:
    """The child process that runs commands through ``rscore.cli.run``."""

    def __init__(self, work_dir: Path) -> None:
        self.log_path = work_dir / "worker.stderr"
        self._log = self.log_path.open("w", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(ROOT / "src")],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.import_s = self._receive()["import_s"]

    def _receive(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            self._proc.wait()
            tail = self.log_path.read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"worker exited with code {self._proc.returncode}:\n{tail}")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        self._proc.stdin.write(json.dumps(payload) + "\n")
        self._proc.stdin.flush()
        return self._receive()

    def run(self, argv: list[str], trace: bool = False, want_stdout: bool = False) -> dict:
        return self.request({"argv": argv, "trace": trace, "want_stdout": want_stdout})

    def close(self) -> int:
        """Stop the worker; return its peak RSS in KiB."""
        maxrss_kb = self.request({"exit": True})["maxrss_kb"]
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        return maxrss_kb

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
        self._proc.wait()
        self._log.close()


@dataclass(frozen=True)
class Sample:
    """One timed repetition with the calibrations on either side."""

    wall: float
    calib_before: float
    calib_after: float

    @property
    def ref_s(self) -> float:
        return self.wall * REFERENCE["calib_ref_s"] / ((self.calib_before + self.calib_after) / 2)


def calibrated(step, count: int, seconds: float = 0.0) -> list[Sample]:
    """Call ``step`` at least ``count`` times and for at least ``seconds``,
    with the calibration loop run before and after each call for as long as
    the call took.

    ``step`` returns the wall seconds of the work it timed.
    """
    samples = []
    gc.collect()
    before = calib.measure(FIRST_CALIB_S)
    deadline = time.perf_counter() + seconds
    while len(samples) < count or time.perf_counter() < deadline:
        wall = step()
        gc.collect()
        after = calib.measure(wall)
        samples.append(Sample(wall, before, after))
        before = after
    return samples


def cold_import() -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import rscore.cli"], cwd=ROOT, env=child_env(), check=True
    )
    return time.perf_counter() - start


def import_splits() -> dict[str, float]:
    """Median self time of numpy, scipy and rscore modules from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rscore.cli"],
            cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        )
        totals = {"numpy": 0.0, "scipy": 0.0, "rscore": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, module = line[len("import time:"):].split("|")
            package = module.strip().split(".")[0]
            if package in totals and self_us.strip().isdigit():
                totals[package] += int(self_us) / 1e6
        runs.append(totals)
    return {
        f"setup.import_{package}_s": statistics.median(run[package] for run in runs)
        for package in ("numpy", "scipy", "rscore")
    }


def describe_host() -> str:
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package} missing")
    uname = platform.uname()
    return (
        f"{uname.system} {uname.release} {uname.machine}, {os.cpu_count()} cpus, "
        f"python {platform.python_version()}, {', '.join(versions)}"
    )


class Outputs:
    """Checks every repetition's output against the first, verified one."""

    def __init__(self, workload: Workload, name: str, seed: int, corpus: gen.Corpus) -> None:
        self.workload, self.name, self.seed, self.corpus = workload, name, seed, corpus
        self.reference: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def accept(self, reply: dict) -> None:
        self.attempted += 1
        ok = reply["code"] == 0
        if self.reference is None:
            if ok:
                self.problems = self.workload.check(reply["stdout"], self.corpus)
                self.reference = reply["sha256"]
                expected = REFERENCE["digests"].get(self.name)
                if self.seed == REFERENCE["default_seed"] and reply["sha256"] != expected:
                    self.problems.append(
                        f"output sha256 {reply['sha256']} differs from the recorded {expected}"
                    )
            else:
                self.problems = [f"exit code {reply['code']}"]
        ok = ok and not self.problems and reply["sha256"] == self.reference
        self.failed += not ok


def end_to_end(argv: list[str], seconds: float, outputs: Outputs,
               work_dir: Path) -> dict[str, float]:
    setup = calibrated(cold_import, SETUP_REPS)
    worker = Worker(work_dir)
    try:
        outputs.accept(worker.run(argv, want_stdout=True))  # warm-up, not timed

        def step():
            reply = worker.run(argv)
            outputs.accept(reply)
            return reply["wall"]

        reps = calibrated(step, MIN_REPS, seconds)
        maxrss_kb = worker.close()
    finally:
        worker.kill()
    for label, samples in (("setup", setup), ("command", reps)):
        print(f"# {label}: raw_s {[round(s.wall, 4) for s in samples]}")
        print(f"# {label}: calib_s {[round(s.calib_before, 4) for s in samples]}"
              f" + [{samples[-1].calib_after:.4f}]")
        print(f"# {label}: ref_s {[round(s.ref_s, 4) for s in samples]}")
    print(f"# worker import_s {worker.import_s:.4f}")
    return {
        "wall_s": statistics.median(s.ref_s for s in reps),
        "setup_s": statistics.median(s.ref_s for s in setup),
        "peak_rss_mb": maxrss_kb / 1024,
    }


def per_layer(argv: list[str], seconds: float, outputs: Outputs, work_dir: Path,
              input_bytes: int) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(import_splits())
    worker = Worker(work_dir)
    plain, traced = [], []
    try:
        outputs.accept(worker.run(argv, want_stdout=True))  # warm-up, not traced
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            for trace, runs in ((False, plain), (True, traced)):
                gc.collect()
                reply = worker.run(argv, trace=trace)
                outputs.accept(reply)
                runs.append(reply)
        worker.close()
    finally:
        worker.kill()
    errors = sorted({error for reply in traced for error in reply["trace"]["errors"]})
    for error in errors:
        print(f"# trace counter skipped: {error}")
    first = traced[0]["trace"]["metrics"]
    for key in PER_LAYER:
        if key in first and not key.endswith("_s"):
            metrics[key] = first[key]
    for span in SELF_TIMES:
        key = f"{span}.self_s"
        metrics[key] = statistics.median(r["trace"]["metrics"].get(key, 0.0) for r in traced)
        metrics[f"{span}.share"] = statistics.median(
            r["trace"]["metrics"].get(key, 0.0) / r["trace"]["command_s"] for r in traced
        )
    metrics["reputation.models"] = first.get("reputation.build_reputation_model.calls", 0)
    metrics["corpus.input_bytes"] = input_bytes
    metrics["trace.command_s"] = statistics.median(r["trace"]["command_s"] for r in traced)
    # Each traced repetition runs right after an untraced one; pairing them
    # keeps slow drifts of the host speed out of the difference.
    metrics["trace.overhead_s"] = statistics.median(
        t["wall"] - p["wall"] for p, t in zip(plain, traced)
    )
    print(f"# traced reps {len(traced)}, untraced reps {len(plain)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rscore" / "cli.py").is_file():
        print(f"perfbench: no rscore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # The calibration only tells the speed of the CPU it runs on, so this
    # process and every child (they inherit the mask) share one CPU. The
    # last one is picked because CPU 0 usually takes more interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work_dir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        corpus = gen.generate(workload.shape, args.seed)
        pubs, rosters = gen.write(corpus, work_dir)
        gc.freeze()  # the corpus lives all run; keep it out of every collection
        command = [*workload.argv, "--pubs", str(pubs), "--rosters", str(rosters)]
        outputs = Outputs(workload, args.workload, args.seed, corpus)
        print(f"# workload {args.workload} seed {args.seed} argv {' '.join(workload.argv)}")
        print(f"# corpus {len(corpus.papers)} papers, {len(corpus.programs)} programs, "
              f"{len({paper.venue for paper in corpus.papers})} venues")
        print(f"# host {describe_host()}")
        print(f"# calib_ref_s {REFERENCE['calib_ref_s']}")
        if args.trace:
            input_bytes = pubs.stat().st_size + rosters.stat().st_size
            metrics = per_layer(command, args.seconds, outputs, work_dir, input_bytes)
            units = {key: per_layer_unit(key) for key in metrics}
        else:
            metrics = end_to_end(command, args.seconds, outputs, work_dir)
            units = END_TO_END_UNITS
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in outputs.problems:
        print(f"# verification failed: {problem}")
    print(f"# fail_frac {outputs.failed}/{outputs.attempted} = "
          f"{outputs.failed / outputs.attempted:.4f}")
    result = {
        "correct": outputs.failed == 0 and not outputs.problems,
        "attempted": outputs.attempted,
        "failed": outputs.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
