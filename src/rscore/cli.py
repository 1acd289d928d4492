"""Command-line interface: one subcommand per pipeline stage.

Each subcommand describes its report once; ``_emit`` prints its tables as
TSV or, with ``--json``, as one JSON document. Reports go to stdout,
diagnostics to stderr. Identical inputs and flags produce byte-identical
output; nothing time- or locale-dependent is emitted. Exit codes: 0 success,
1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice
from pathlib import Path
from collections.abc import Iterable, Sequence

import numpy as np

from .analysis import compare_rankings, stability_sweep
from .corpus import Corpus, parse_corpus, reference_venue_set
from .counts import CountsTable, VenueMode, build_counts
from .errors import AnalysisError, CorpusError, RScoreError
from .reputation import ReputationModel, build_reputation_model
from .scoring import ScoreReport, _by_value, score_programs

_VENUE_MODES = {
    "per-program": VenueMode.PER_PROGRAM,
    "distinct": VenueMode.DISTINCT_PAPER,
}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
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
    corpus = parse_corpus(pubs_text, rosters_text, window)
    if corpus.dropped_outside_window:
        print(
            f"warning: dropped {corpus.dropped_outside_window} publication record(s)"
            f" outside year window [{args.year_from}, {args.year_to}]",
            file=sys.stderr,
        )
    return corpus


def _fmt_pct(rho: float) -> str:
    return f"{100.0 * rho:.2f}%"


class _Table:
    """One report table, printed as TSV lines or as a JSON list of objects.

    ``columns`` (space-separated) are the JSON keys and the TSV header.
    ``template`` formats one tuple of ``rows`` as a TSV line; ``title``, if
    given, is the ``# ...`` line printed above the header.
    """

    def __init__(self, columns: str, template: str, rows: Iterable[tuple],
                 title: str | None = None) -> None:
        self.columns = columns.split()
        self.template = template
        self.rows = rows
        self.title = title


def _emit(args: argparse.Namespace, payload: dict[str, object],
          tsv_tail: Iterable[str] = ()) -> None:
    """Print ``payload`` as one JSON document with ``--json``, else as TSV.

    TSV is each table in order, then ``tsv_tail``; other values are JSON-only.
    """
    if args.json:
        document = {
            key: [dict(zip(value.columns, row)) for row in value.rows]
            if isinstance(value, _Table) else value
            for key, value in payload.items()
        }
        sys.stdout.write(json.dumps(document, indent=2) + "\n")
        return
    parts: list[Iterable[str]] = []
    for table in payload.values():
        if isinstance(table, _Table):
            parts += [[table.title] if table.title is not None else [],
                      ["\t".join(table.columns)], map(table.template.__mod__, table.rows)]
    lines = chain.from_iterable([*parts, tsv_tail])
    # A block of lines at a time: no copy of the whole report is ever held.
    for block in iter(lambda: list(islice(lines, 4096)), []):
        sys.stdout.write("\n".join(block))
        sys.stdout.write("\n")


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    summary = {
        "publications": corpus.publication_count,
        "reference_programs": len(corpus.reference_programs),
        "candidate_programs": len(corpus.candidate_programs),
        "venues": len(reference_venue_set(corpus)),
        "dropped_outside_window": corpus.dropped_outside_window,
    }
    _emit(args, summary, ["\t".join(f"{key}={value}" for key, value in summary.items())])
    return 0


def _cmd_counts(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    counts = build_counts(corpus, _VENUE_MODES[args.venue_mode])
    mode = counts.venue_mode.value
    # Rows hold the reference programs first, then the candidates.
    n_reference = len(counts.reference_programs)
    # Whole-paper counts are ints, so their exact form is "c/1".
    _emit(args, {
        "venue_mode": mode,
        "venue_totals": _Table(
            "venue count exact", "%s\t%.6f\t%s",
            ((v, float(c), f"{c}/1") for v, c in counts.per_venue.items()),
            f"# venue_totals\tmode={mode}",
        ),
        "program_totals": _Table(
            "program role count exact", "%s\t%s\t%.6f\t%s",
            ((p, "reference" if row < n_reference else "candidate", float(c), f"{c}/1")
             for row, (p, c) in enumerate(counts.per_program.items())),
            "# program_totals",
        ),
        "program_venue": _Table(
            "program venue count exact", "%s\t%s\t%.6f\t%s",
            ((p, v, float(c), f"{c}/1") for (p, v), c in counts.per_program_venue.items()),
            "# program_venue",
        ),
        # Streamed in (program, faculty, venue) order; no per-faculty dict is built.
        "faculty_venue": _Table(
            "program faculty venue count exact", "%s\t%s\t%s\t%.6f\t%s",
            counts._faculty_rows(), "# faculty_venue",
        ),
    })
    return 0


def _build_model(args: argparse.Namespace) -> tuple[Corpus, CountsTable, ReputationModel]:
    corpus = _load_corpus(args)
    counts = build_counts(corpus, _VENUE_MODES[args.venue_mode])
    model = build_reputation_model(counts)
    return corpus, counts, model


def _cmd_venues(args: argparse.Namespace) -> int:
    _, _, model = _build_model(args)
    if args.dump_matrices:  # an audit dump, TSV even with --json
        lines = ["# program_index", *model.program_index, "# venue_index", *model.venue_index]
        for name, array in (("alpha (venue x program)", model.alpha),
                            ("beta (program x venue)", model.beta), ("p_prime", model.p_prime),
                            ("gamma", model.gamma), ("nu", model.nu)):
            lines.append(f"# {name}")
            lines += ("\t".join(f"{value:.17g}" for value in row) for row in np.atleast_2d(array))
        sys.stdout.write("\n".join(lines))
        sys.stdout.write("\n")
        return 0
    _emit(args, {
        "model_digest": model.digest if args.json else None,
        "venues": _Table("venue nu", "%s\t%.6f", _by_value(model.venue_index, model.nu.tolist())),
    })
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
    _emit(args, {
        "model_digest": model.digest if args.json else None,
        "zero_scores": report.zero_scores,
        "rows": _Table(
            "program_id faculty_count raw_score r_score r_score_per_faculty"
            " rank_total rank_per_faculty",
            "%s\t%s\t%.6f\t%.6f\t%.6f\t%s\t%s",
            ((r.program_id, r.faculty_count, r.raw_score, r.r_score, r.r_score_per_faculty,
              r.rank_total, r.rank_per_faculty) for r in report.rows),
        ),
    })
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    k = args.k if args.k is not None else len(corpus.reference_programs)
    report = stability_sweep(corpus, k)
    comparisons = [*report.adjacent, report.first_vs_last]
    _emit(args, {
        "sizes": list(report.sizes),
        "comparisons": _Table(
            "comparison rho agreement_pct", "%s\t%.6f\t%s",
            ((f"R_Top({i}) versus R_Top({j})", rho, _fmt_pct(rho)) for i, j, rho in comparisons),
        ),
        "rankings": {str(size): list(report.rankings[size]) for size in report.sizes},
    })
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
    rho = comparison.rho
    if comparison.degenerate:
        spearman = ["rho\tdegenerate"]
    else:
        spearman = [f"rho\t{rho:.6f}", f"agreement_pct\t{_fmt_pct(rho)}"]
    _emit(args, {
        "rows": _Table(
            "program_id r_score grade", "%s\t%.6f\t%g",
            ((r.program_id, r.r_score, r.grade) for r in comparison.rows),
        ),
        "rho": rho,
        "agreement_pct": None if rho is None else _fmt_pct(rho),
        "degenerate": comparison.degenerate,
    }, ["# spearman", *spearman])
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
    try:
        return _COMMANDS[args.command](args)
    except (RScoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
