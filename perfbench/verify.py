"""Independent checks of the CLI's output, using only the generated records.

Nothing here imports ``rscore``: counts are recounted from the generator's
own records, and the rank and stability tables are checked for internal
consistency. Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

from gen import Corpus

RANK_HEADER = (
    "program_id\tfaculty_count\traw_score\tr_score\tr_score_per_faculty"
    "\trank_total\trank_per_faculty"
)
STABILITY_HEADER = "comparison\trho\tagreement_pct"
# Values are printed with 6 decimals, so ordering is only known to this tolerance.
PRINT_TOL = 1e-6


def _section(lines: list[str], title: str) -> list[str]:
    """Rows of the ``# <title>`` section, without its title and header lines."""
    for index, line in enumerate(lines):
        if line.split("\t")[0] == f"# {title}":
            rows = []
            for row in lines[index + 2 :]:
                if row.startswith("# "):
                    break
                rows.append(row)
            return rows
    return []


def program_totals(corpus: Corpus) -> dict[str, int]:
    """Distinct papers per program within the reference venue set."""
    home = {
        author: program.program_id
        for program in corpus.programs
        for author in program.faculty
    }
    reference = {p.program_id for p in corpus.programs if p.role == "reference"}
    venues = {
        paper.venue
        for paper in corpus.papers
        if any(home.get(author) in reference for author in paper.authors)
    }
    totals = {program.program_id: 0 for program in corpus.programs}
    for paper in corpus.papers:
        if paper.venue in venues:
            for program_id in {home[a] for a in paper.authors if a in home}:
                totals[program_id] += 1
    return totals


def check_counts(text: str, corpus: Corpus) -> list[str]:
    rows = _section(text.splitlines(), "program_totals")
    printed = {}
    for row in rows:
        fields = row.split("\t")
        if len(fields) != 4:
            return [f"counts: malformed program_totals row {row!r}"]
        printed[fields[0]] = fields[3]
    expected = {pid: f"{n}/1" for pid, n in program_totals(corpus).items()}
    if printed != expected:
        wrong = sorted(
            pid for pid in expected.keys() | printed.keys()
            if printed.get(pid) != expected.get(pid)
        )
        return [f"counts: program totals differ from the recount for {wrong[:5]}"]
    return []


def _ranks_consistent(values: list[float], ranks: list[int]) -> bool:
    """Competition ranks (1 + number strictly better), up to print rounding."""
    for value, rank in zip(values, ranks):
        surely_better = sum(1 for other in values if other > value + PRINT_TOL)
        maybe_better = sum(1 for other in values if other > value - PRINT_TOL)
        if not 1 + surely_better <= rank <= 1 + maybe_better:
            return False
    return True


def check_rank(text: str, corpus: Corpus) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != RANK_HEADER:
        return ["rank: missing header"]
    try:
        rows = [line.split("\t") for line in lines[1:]]
        ids = [row[0] for row in rows]
        raw = [float(row[2]) for row in rows]
        r_score = [row[3] for row in rows]
        per_faculty = [float(row[4]) for row in rows]
        rank_total = [int(row[5]) for row in rows]
        rank_pf = [int(row[6]) for row in rows]
    except (IndexError, ValueError) as exc:
        return [f"rank: malformed row: {exc}"]
    problems = []
    candidates = sorted(p.program_id for p in corpus.programs if p.role == "candidate")
    if sorted(ids) != candidates:
        problems.append("rank: rows do not cover exactly the candidate programs")
    if not r_score or r_score[0] != "1.000000":
        problems.append("rank: top r_score is not 1.000000")
    if any(a < b for a, b in zip(raw, raw[1:])):
        problems.append("rank: rows are not ordered by descending raw score")
    if max(per_faculty, default=0.0) != 1.0:
        problems.append("rank: best per-faculty score is not 1.000000")
    if not _ranks_consistent(raw, rank_total):
        problems.append("rank: rank_total disagrees with raw_score")
    if not _ranks_consistent(per_faculty, rank_pf):
        problems.append("rank: rank_per_faculty disagrees with r_score_per_faculty")
    return problems


def check_stability(text: str, k: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != STABILITY_HEADER:
        return ["stability: missing header"]
    expected = [f"R_Top({i}) versus R_Top({i + 1})" for i in range(1, k)]
    expected.append(f"R_Top(1) versus R_Top({k})")
    rows = [line.split("\t") for line in lines[1:]]
    if [row[0] for row in rows] != expected or any(len(row) != 3 for row in rows):
        return [f"stability: expected {k - 1} adjacent rows and first-versus-last"]
    problems = []
    for label, rho_text, pct_text in rows:
        try:
            rho = float(rho_text)
            pct = float(pct_text.rstrip("%"))
        except ValueError:
            return [f"stability: {label}: malformed row"]
        if not -1.0 <= rho <= 1.0:
            problems.append(f"stability: {label}: rho {rho} outside [-1, 1]")
        if abs(pct - 100.0 * rho) > 0.005 + 100 * PRINT_TOL:
            problems.append(f"stability: {label}: agreement {pct_text} does not match rho")
    return problems
