"""Command-line interface: one subcommand per pipeline stage.

Reports go to stdout, diagnostics to stderr. Identical inputs and flags
produce byte-identical output; nothing time- or locale-dependent is emitted.
Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from fractions import Fraction
from pathlib import Path
from collections.abc import Sequence

import numpy as np

from .analysis import compare_rankings, stability_sweep
from .corpus import Corpus, parse_corpus, reference_venue_set
from .counts import CountsTable, VenueMode, build_counts
from .errors import AnalysisError, CorpusError, RScoreError
from .reputation import ReputationModel, build_reputation_model
from .scoring import ScoreReport, score_programs

_VENUE_MODES = {
    "per-program": VenueMode.PER_PROGRAM,
    "distinct": VenueMode.DISTINCT_PAPER,
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pubs", required=True, help="publications file (one JSON record per line)")
    common.add_argument("--rosters", required=True, help="rosters JSON document")
    common.add_argument("--from", dest="year_from", type=int, default=None, metavar="YEAR",
                        help="first year of the observation window (inclusive)")
    common.add_argument("--to", dest="year_to", type=int, default=None, metavar="YEAR",
                        help="last year of the observation window (inclusive)")
    common.add_argument("--venue-mode", choices=sorted(_VENUE_MODES), default="per-program",
                        help="how shared papers enter per-venue totals")
    common.add_argument("--json", action="store_true", help="emit JSON instead of TSV")

    parser = argparse.ArgumentParser(
        prog="rscore",
        description="Reputation-based scoring of research programs from publication listings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common],
                   help="parse the inputs, check every invariant, print a summary")
    sub.add_parser("counts", parents=[common],
                   help="emit all publication counts")
    venues = sub.add_parser("venues", parents=[common],
                            help="emit venue reputations")
    venues.add_argument("--dump-matrices", action="store_true",
                        help="emit the full transition structure for audit")
    sub.add_parser("rank", parents=[common],
                   help="score and rank the candidate programs")
    stability = sub.add_parser("stability", parents=[common],
                               help="rank-correlation sweep over reference-set prefixes")
    stability.add_argument("--k", type=_positive_int, default=None,
                           help="largest prefix size (default: all reference programs)")
    compare = sub.add_parser("compare", parents=[common],
                             help="compare the score ranking with external grades")
    compare.add_argument("--grades", required=True,
                         help="external grades file (program_id<TAB>grade per line)")
    return parser


def _read_text(path: str, error: type[RScoreError]) -> str:
    """The file's text; bytes that are not UTF-8 raise ``error`` with their line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not valid UTF-8: {exc.reason}") from None


def _load_corpus(args: argparse.Namespace) -> Corpus:
    window = None
    if args.year_from is not None:
        window = (args.year_from, args.year_to)
    pubs_text = _read_text(args.pubs, CorpusError)
    rosters_text = _read_text(args.rosters, CorpusError)
    return parse_corpus(pubs_text, rosters_text, window)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _fmt_exact(value: Fraction | int) -> str:
    return f"{value.numerator}/{value.denominator}"


def _fmt_pct(rho: float) -> str:
    return f"{100.0 * rho:.2f}%"


def _emit(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(payload: object) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    summary = {
        "publications": corpus.publication_count,
        "reference_programs": len(corpus.reference_programs),
        "candidate_programs": len(corpus.candidate_programs),
        "venues": len(reference_venue_set(corpus)),
        "dropped_outside_window": corpus.dropped_outside_window,
    }
    if args.json:
        _emit_json(summary)
    else:
        _emit(["\t".join(f"{key}={value}" for key, value in summary.items())])
    return 0


def _counts_sections(counts: CountsTable):
    # Rows hold the reference programs first, then the candidates.
    n_reference = len(counts.reference_programs)
    venue_rows = list(counts.per_venue.items())
    program_rows = [
        (pid, "reference" if row < n_reference else "candidate", total)
        for row, (pid, total) in enumerate(counts.per_program.items())
    ]
    program_venue_rows = counts.per_program_venue.items()
    # The per-faculty table is already in (program, faculty, venue) order.
    table = counts.per_faculty_venue
    faculty_rows = zip(table, map(Fraction.as_integer_ratio, table.values()))
    return venue_rows, program_rows, program_venue_rows, faculty_rows


def _cmd_counts(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    counts = build_counts(corpus, _VENUE_MODES[args.venue_mode])
    venue_rows, program_rows, program_venue_rows, faculty_rows = _counts_sections(counts)
    if args.json:
        _emit_json(
            {
                "venue_mode": counts.venue_mode.value,
                "venue_totals": [
                    {"venue": v, "count": float(c), "exact": _fmt_exact(c)}
                    for v, c in venue_rows
                ],
                "program_totals": [
                    {"program": p, "role": role, "count": float(c), "exact": _fmt_exact(c)}
                    for p, role, c in program_rows
                ],
                "program_venue": [
                    {"program": p, "venue": v, "count": float(c), "exact": _fmt_exact(c)}
                    for (p, v), c in program_venue_rows
                ],
                "faculty_venue": [
                    {"program": p, "faculty": f, "venue": v, "count": n / d,
                     "exact": f"{n}/{d}"}
                    for (p, f, v), (n, d) in faculty_rows
                ],
            }
        )
        return 0
    lines = [f"# venue_totals\tmode={counts.venue_mode.value}", "venue\tcount\texact"]
    lines += [f"{v}\t{_fmt(float(c))}\t{_fmt_exact(c)}" for v, c in venue_rows]
    lines += ["# program_totals", "program\trole\tcount\texact"]
    lines += [
        f"{p}\t{role}\t{_fmt(float(c))}\t{_fmt_exact(c)}" for p, role, c in program_rows
    ]
    lines += ["# program_venue", "program\tvenue\tcount\texact"]
    lines += [
        f"{p}\t{v}\t{_fmt(float(c))}\t{_fmt_exact(c)}" for (p, v), c in program_venue_rows
    ]
    lines += ["# faculty_venue", "program\tfaculty\tvenue\tcount\texact"]
    # n / d is the correctly rounded float that float(Fraction(n, d)) gives.
    lines += [
        f"{p}\t{f}\t{v}\t{n / d:.6f}\t{n}/{d}" for (p, f, v), (n, d) in faculty_rows
    ]
    _emit(lines)
    return 0


def _build_model(args: argparse.Namespace) -> tuple[Corpus, CountsTable, ReputationModel]:
    corpus = _load_corpus(args)
    counts = build_counts(corpus, _VENUE_MODES[args.venue_mode])
    model = build_reputation_model(counts)
    return corpus, counts, model


def _matrix_lines(name: str, array: np.ndarray) -> list[str]:
    lines = [f"# {name}"]
    for row in np.atleast_2d(array):
        lines.append("\t".join(f"{value:.17g}" for value in row))
    return lines


def _cmd_venues(args: argparse.Namespace) -> int:
    _, _, model = _build_model(args)
    ranked = sorted(zip(model.venue_index, model.nu), key=lambda item: (-item[1], item[0]))
    if args.dump_matrices:
        lines = ["# program_index", *model.program_index]
        lines += ["# venue_index", *model.venue_index]
        lines += _matrix_lines("alpha (venue x program)", model.alpha)
        lines += _matrix_lines("beta (program x venue)", model.beta)
        lines += _matrix_lines("p_prime", model.p_prime)
        lines += _matrix_lines("gamma", model.gamma)
        lines += _matrix_lines("nu", model.nu)
        _emit(lines)
        return 0
    if args.json:
        _emit_json(
            {
                "model_digest": model.digest,
                "venues": [{"venue": v, "nu": float(nu)} for v, nu in ranked],
            }
        )
        return 0
    lines = ["venue\tnu"]
    lines += [f"{venue}\t{_fmt(float(nu))}" for venue, nu in ranked]
    _emit(lines)
    return 0


def _score_candidates(args: argparse.Namespace) -> tuple[ScoreReport, ReputationModel]:
    corpus, counts, model = _build_model(args)
    candidates = [r.program_id for r in corpus.candidate_programs]
    if not candidates:
        raise AnalysisError("no candidate programs in the rosters file")
    return score_programs(model, counts, candidates), model


def _cmd_rank(args: argparse.Namespace) -> int:
    report, model = _score_candidates(args)
    if report.zero_scores:
        print("warning: every candidate scored zero", file=sys.stderr)
    if args.json:
        _emit_json(
            {
                "model_digest": model.digest,
                "zero_scores": report.zero_scores,
                "rows": [
                    {
                        "program_id": row.program_id,
                        "faculty_count": row.faculty_count,
                        "raw_score": row.raw_score,
                        "r_score": row.r_score,
                        "r_score_per_faculty": row.r_score_per_faculty,
                        "rank_total": row.rank_total,
                        "rank_per_faculty": row.rank_per_faculty,
                    }
                    for row in report.rows
                ],
            }
        )
        return 0
    lines = [
        "program_id\tfaculty_count\traw_score\tr_score\tr_score_per_faculty"
        "\trank_total\trank_per_faculty"
    ]
    lines += [
        f"{row.program_id}\t{row.faculty_count}\t{_fmt(row.raw_score)}"
        f"\t{_fmt(row.r_score)}\t{_fmt(row.r_score_per_faculty)}"
        f"\t{row.rank_total}\t{row.rank_per_faculty}"
        for row in report.rows
    ]
    _emit(lines)
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    k = args.k if args.k is not None else len(corpus.reference_programs)
    report = stability_sweep(corpus, k)
    comparisons = list(report.adjacent) + [report.first_vs_last]
    if args.json:
        _emit_json(
            {
                "sizes": list(report.sizes),
                "comparisons": [
                    {
                        "comparison": f"R_Top({i}) versus R_Top({j})",
                        "rho": rho,
                        "agreement_pct": _fmt_pct(rho),
                    }
                    for i, j, rho in comparisons
                ],
                "rankings": {
                    str(size): list(report.rankings[size]) for size in report.sizes
                },
            }
        )
        return 0
    lines = ["comparison\trho\tagreement_pct"]
    lines += [
        f"R_Top({i}) versus R_Top({j})\t{_fmt(rho)}\t{_fmt_pct(rho)}"
        for i, j, rho in comparisons
    ]
    _emit(lines)
    return 0


def _read_grades(path: str) -> list[tuple[str, float]]:
    grades: list[tuple[str, float]] = []
    text = _read_text(path, AnalysisError)
    if text.startswith("\ufeff"):
        raise AnalysisError(f"{path}:1: unexpected UTF-8 byte order mark")
    # A line ends at LF (CRLF accepted), as a publications line does.
    for lineno, line in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise AnalysisError(
                f"{path}:{lineno}: expected 'program_id<TAB>grade', got {line!r}"
            )
        pid = parts[0].strip()
        if not pid:
            raise AnalysisError(f"{path}:{lineno}: empty program id")
        try:
            grade = float(parts[1])
        except ValueError as exc:
            raise AnalysisError(
                f"{path}:{lineno}: grade must be a number, got {parts[1]!r}"
            ) from exc
        if not math.isfinite(grade):
            raise AnalysisError(f"{path}:{lineno}: grade must be finite, got {parts[1]!r}")
        grades.append((pid, grade))
    if not grades:
        raise AnalysisError(f"{path}: no grades found")
    return grades


def _cmd_compare(args: argparse.Namespace) -> int:
    grades = _read_grades(args.grades)
    score_report, _ = _score_candidates(args)
    comparison = compare_rankings(score_report, grades)
    if comparison.unmatched:
        unmatched = ", ".join(map(repr, comparison.unmatched))
        print(f"warning: grades for no candidate program: {unmatched}", file=sys.stderr)
    if args.json:
        _emit_json(
            {
                "rows": [
                    {"program_id": row.program_id, "r_score": row.r_score,
                     "grade": row.grade}
                    for row in comparison.rows
                ],
                "rho": comparison.rho,
                "agreement_pct": None
                if comparison.rho is None
                else _fmt_pct(comparison.rho),
                "degenerate": comparison.degenerate,
            }
        )
        return 0
    lines = ["program_id\tr_score\tgrade"]
    lines += [
        f"{row.program_id}\t{_fmt(row.r_score)}\t{row.grade:g}"
        for row in comparison.rows
    ]
    lines.append("# spearman")
    if comparison.degenerate:
        lines.append("rho\tdegenerate")
    else:
        lines.append(f"rho\t{_fmt(comparison.rho)}")
        lines.append(f"agreement_pct\t{_fmt_pct(comparison.rho)}")
    _emit(lines)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "counts": _cmd_counts,
    "venues": _cmd_venues,
    "rank": _cmd_rank,
    "stability": _cmd_stability,
    "compare": _cmd_compare,
}


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if (args.year_from is None) != (args.year_to is None):
        print("rscore: error: --from and --to must be given together", file=sys.stderr)
        return 2
    if args.year_from is not None and args.year_from > args.year_to:
        print(
            f"rscore: error: --from {args.year_from} exceeds --to {args.year_to}",
            file=sys.stderr,
        )
        return 2
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except (RScoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
