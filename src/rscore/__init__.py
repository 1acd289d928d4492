"""Reputation-based scoring of research programs from publication listings.

The pipeline: parse a corpus of publication records and program rosters,
count publications with same-program co-author weighting, propagate
reputation from a chosen reference set of programs to the venues they
publish in (a bipartite Markov chain solved by GTH state reduction), then
score and rank candidate programs by how much they publish in
high-reputation venues.
"""

from .analysis import (
    ComparisonReport,
    ComparisonRow,
    StabilityReport,
    compare_rankings,
    spearman,
    stability_sweep,
)
from .corpus import (
    Corpus,
    ProgramRoster,
    PublicationRecord,
    parse_corpus,
    reference_venue_set,
    serialize_publications,
    serialize_rosters,
)
from .counts import (
    CountsTable,
    VenueMode,
    build_counts,
)
from .errors import (
    AnalysisError,
    CorpusError,
    CountsError,
    DegenerateRankingError,
    EmptyVenueSetError,
    ModelError,
    ReducibleChainError,
    RScoreError,
    ScoringError,
)
from .reputation import ReputationModel, build_reputation_model, stationary_gth
from .scoring import ScoreReport, ScoreRow, score_programs

__version__ = "0.1.0"

__all__ = [
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
    "ReducibleChainError",
    "ReputationModel",
    "RScoreError",
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
