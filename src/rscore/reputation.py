"""Reputation propagation between programs and venues.

Programs and venues form a bipartite chain: a program distributes its
reputation over the venues it publishes in (publication-share rows ``beta``),
and a venue distributes its reputation over the programs that fill it
(publication-share columns ``alpha``). The two-block chain is periodic, so it
is never solved directly; only the program-to-program aggregation
``beta @ alpha`` is, via Grassmann-Taksar-Heyman state reduction. Venue
reputations follow by one more transition step.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .counts import CountsTable
from .errors import ModelError, ReducibleChainError

# Build-time stochasticity assertions on the raw matrices.
ROW_SUM_TOL = 1e-12
# Aggregated rows and the stationary fixed point.
AGGREGATE_TOL = 1e-10
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ReputationModel:
    """A solved reputation model, immutable and safe for concurrent reads.

    ``alpha[j, w]`` is program ``w``'s share of venue ``j``'s papers;
    ``beta[w, j]`` is venue ``j``'s share of program ``w``'s papers. Rows of
    ``beta`` and of ``alpha`` sum to one. Both come from the per-program
    counts alone, so the counting mode of the table does not change them.
    ``p_prime`` is the program-to-program matrix ``beta @ alpha``, ``gamma``
    its stationary vector, and ``nu`` the venue reputations, one step on,
    scaled so the top venue is exactly 1.
    """

    program_index: tuple[str, ...]
    venue_index: tuple[str, ...]
    alpha: np.ndarray
    beta: np.ndarray
    p_prime: np.ndarray
    gamma: np.ndarray
    nu: np.ndarray

    @property
    def digest(self) -> str:
        """Deterministic fingerprint of the model inputs and solution."""
        hasher = hashlib.sha256()
        hasher.update("\x1f".join(self.program_index).encode())
        hasher.update(b"\x1e")
        hasher.update("\x1f".join(self.venue_index).encode())
        hasher.update(b"\x1e")
        for array in (self.alpha, self.beta, self.gamma, self.nu):
            hasher.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        return hasher.hexdigest()[:16]


def build_reputation_model(counts: CountsTable) -> ReputationModel:
    """Build, solve, and verify the full reputation model for a counts table.

    The table's venue mode only changes its reported venue totals, which are
    not read here.
    """
    programs = counts.reference_programs
    alpha, beta = _transition_blocks(counts.matrix[: len(programs)], programs)
    p_prime, gamma, nu = _solve(alpha, beta)
    return ReputationModel(
        program_index=tuple(programs),
        venue_index=tuple(counts.venue_index),
        alpha=alpha,
        beta=beta,
        p_prime=p_prime,
        gamma=gamma,
        nu=nu,
    )


def _transition_blocks(
    reference: np.ndarray, programs: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta of an integer reference programs x venues block.

    beta is the block over its row sums and alpha the block over its column
    sums, transposed. Counts and sums are integers below 2**53, so each
    entry is the correctly rounded quotient.

    Every reference program must have at least one paper in the venue set,
    otherwise its outgoing row would be undefined.
    """
    if len(programs) == 0:
        raise ModelError("no reference programs")
    # The blocks inherit the layout of the counts, and a matrix product
    # over a Fortran-ordered beta adds in another order and changes the
    # last bits of the model; a C-ordered block makes the bits independent
    # of how the caller's matrix is laid out.
    reference = np.ascontiguousarray(reference)
    totals = reference.sum(axis=1)
    idle = np.flatnonzero(totals == 0)
    if idle.size:
        raise ModelError(
            f"reference program {programs[idle[0]]!r} has no publications in the "
            f"venue set; its transition row is undefined"
        )

    beta = reference / totals[:, None]
    alpha = np.ascontiguousarray((reference / reference.sum(axis=0)).T)

    row_sums = beta.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
        raise ModelError("program transition rows do not sum to 1")
    venue_sums = alpha.sum(axis=1)
    if np.max(np.abs(venue_sums - 1.0)) > ROW_SUM_TOL:
        raise ModelError("venue transition rows do not sum to 1")
    return alpha, beta


def _strongly_connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a directed graph given as a boolean
    n x n adjacency matrix, each sorted, ordered by their smallest state.

    Reachability is closed by squaring the 0/1 reach matrix until it stops
    changing (about log2 n products); two states share a component when each
    reaches the other.
    """
    n = adjacency.shape[0]
    reach = (adjacency | np.eye(n, dtype=bool)).astype(np.float64)
    while True:
        closed = (reach @ reach > 0).astype(np.float64)
        if np.array_equal(closed, reach):
            break
        reach = closed
    mutual = reach * reach.T > 0
    smallest = mutual.argmax(axis=1)
    return [np.flatnonzero(smallest == root).tolist() for root in np.unique(smallest)]


def stationary_gth(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix.

    Uses Grassmann-Taksar-Heyman state reduction: states are eliminated one
    by one, with each pivot taken as the sum of the remaining off-diagonal
    row entries, so the elimination never subtracts like-signed quantities
    and needs no pivoting to stay stable. Reducible inputs are rejected with
    the list of strongly connected components, ordered by smallest state,
    rather than silently patched.
    """
    a = np.array(p, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        raise ModelError("empty transition matrix")
    # Written so that a NaN entry, whose row sum is NaN, fails the check.
    if np.any(a < 0) or not np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-8):
        raise ModelError("matrix is not row-stochastic")

    components = _strongly_connected_components(a > 0)
    if len(components) > 1:
        raise ReducibleChainError(components)

    for k in range(n - 1):
        pivot = a[k, k + 1 :].sum()
        if pivot <= 0.0:
            # unreachable after the irreducibility check; kept as a guard
            raise ModelError(f"zero pivot while eliminating state {k}")
        a[k + 1 :, k] /= pivot
        a[k + 1 :, k + 1 :] += a[k + 1 :, k, None] * a[k, k + 1 :]

    x = np.zeros(n)
    x[n - 1] = 1.0
    for k in range(n - 2, -1, -1):
        x[k] = x[k + 1 :] @ a[k + 1 :, k]
    return x / x.sum()


def _solve(
    alpha: np.ndarray, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate, solve and verify, then step to the venues: p_prime, gamma
    and nu of the chain with blocks alpha and beta."""
    p_prime = beta @ alpha
    row_sums = p_prime.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > AGGREGATE_TOL:
        raise ModelError("aggregated matrix is not row-stochastic")
    gamma = stationary_gth(p_prime)
    residual = np.max(np.abs(gamma @ p_prime - gamma))
    if residual > RESIDUAL_TOL:
        raise ModelError(f"stationary solve residual {residual:.3e} exceeds tolerance")
    nu = gamma @ beta
    top = nu.max()
    if top <= 0.0:
        raise ModelError("venue reputations are all zero")
    return p_prime, gamma, nu / top
