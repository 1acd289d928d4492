"""Reputation propagation between programs and venues.

Programs and venues form a bipartite chain: a program distributes its
reputation over the venues it publishes in (publication-share rows ``beta``),
and a venue distributes its reputation over the programs that fill it
(publication-share columns ``alpha``). The two-block chain is periodic, so it
is never solved directly; only the program-to-program aggregation
``beta @ alpha`` is, via Grassmann-Taksar-Heyman state reduction. Venue
reputations follow by one more transition step. The stability sweep solves
no prefix: this module only says which prefixes of the reference programs
have a model, and the first that has none raises its error.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import EMPTY_VENUE_SET
from .counts import CountsTable
from .errors import EmptyVenueSetError, ModelError, ReducibleChainError

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
    alpha, beta, p_prime = _transition_blocks(counts.matrix[: len(programs)], programs)
    gamma = stationary_gth(p_prime)
    return ReputationModel(
        program_index=tuple(programs),
        venue_index=tuple(counts.venue_index),
        alpha=alpha,
        beta=beta,
        p_prime=p_prime,
        gamma=gamma,
        nu=_venue_step(p_prime, gamma, beta),
    )


def _transition_blocks(
    reference: np.ndarray, programs: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alpha, beta and their aggregate ``p_prime = beta @ alpha`` of an integer
    reference programs x venues block, each checked to be row-stochastic.

    beta is the block over its row sums and alpha the block over its column
    sums, transposed. Counts and sums are integers below 2**53, so each
    entry is the correctly rounded quotient.

    The block needs a venue column, and every reference program a paper in
    one, otherwise its outgoing row would be undefined.
    """
    if len(programs) == 0:
        raise ModelError("no reference programs")
    if reference.shape[1] == 0:
        raise EmptyVenueSetError(EMPTY_VENUE_SET)
    # The blocks inherit the layout of the counts, and a matrix product
    # over a Fortran-ordered beta adds in another order and changes the
    # last bits of the model; a C-ordered block makes the bits independent
    # of how the caller's matrix is laid out.
    reference = np.ascontiguousarray(reference)
    totals = reference.sum(axis=1)
    idle = np.flatnonzero(totals == 0)
    if idle.size:
        raise _idle(programs[idle[0]])

    beta = reference / totals[:, None]
    # Divided straight into C order, so no quotient is transposed and copied.
    alpha = np.divide(reference.T, reference.sum(axis=0)[:, None],
                      out=np.empty(reference.shape[::-1]))

    row_sums = beta.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
        raise ModelError("program transition rows do not sum to 1")
    venue_sums = alpha.sum(axis=1)
    if np.max(np.abs(venue_sums - 1.0)) > ROW_SUM_TOL:
        raise ModelError("venue transition rows do not sum to 1")
    p_prime = beta @ alpha
    if np.max(np.abs(p_prime.sum(axis=1) - 1.0)) > AGGREGATE_TOL:
        raise ModelError("aggregated matrix is not row-stochastic")
    return alpha, beta, p_prime


def _modelled_prefixes(reference: np.ndarray, programs: Sequence[str]) -> Iterator[int]:
    """Sizes 1, 2, ... of the prefixes of an integer reference block's rows
    that have a model, smallest first; the first that has none raises the
    error :func:`build_reputation_model` raises on its rows alone.

    ``p_prime[w, w']`` is positive exactly when programs w and w' share a
    venue, so its strongly connected components are the connected components
    of the program-venue graph. A union-find over that graph, one row at a
    time, stays trivial: every prefix before the first failing one is
    connected, so it is one set of venues, and the next row joins it exactly
    when it publishes in one of them. A row that does not splits its prefix
    into the rows before it and itself.
    """
    seen = np.zeros(reference.shape[1], dtype=bool)
    for size, row in enumerate(reference, start=1):
        venues = row > 0
        if not venues.any():
            raise EmptyVenueSetError(EMPTY_VENUE_SET) if size == 1 else _idle(programs[size - 1])
        if size > 1 and not (venues & seen).any():
            raise ReducibleChainError([range(size - 1), [size - 1]])
        seen |= venues
        yield size


def _idle(program: str) -> ModelError:
    return ModelError(f"reference program {program!r} has no publications in the venue set; "
                      "its transition row is undefined")


def _strongly_connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a directed graph given as a boolean
    n x n adjacency matrix, each sorted, ordered by their smallest state; two
    states share a component when each reaches the other. The reach matrix
    is squared until it stops changing (about log2 n products); path counts
    are exact."""
    reach, closed = None, adjacency | np.eye(len(adjacency), dtype=bool)
    while not np.array_equal(closed, reach):
        reach = closed
        paths = reach.astype(np.float64)
        closed = paths @ paths > 0
    smallest = (reach & reach.T).argmax(axis=1)
    # A component's root is its smallest state; np.unique would load numpy.ma into `rank`.
    roots = np.flatnonzero(smallest == np.arange(len(smallest)))
    return [np.flatnonzero(smallest == root).tolist() for root in roots]


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
    if a.shape[0] == 0:
        raise ModelError("empty transition matrix")
    # Written so that a NaN entry, whose row sum is NaN, fails the check.
    if np.any(a < 0) or not np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-8):
        raise ModelError("matrix is not row-stochastic")
    components = _strongly_connected_components(a > 0)
    if len(components) > 1:
        raise ReducibleChainError(components)
    for g in range(len(a) - 1):
        pivot = a[g, g + 1 :].sum()
        if pivot <= 0.0:  # unreachable after the irreducibility check; kept as a guard
            raise ModelError(f"zero pivot while eliminating state {g}")
        a[g + 1 :, g] /= pivot
        a[g + 1 :, g + 1 :] += a[g + 1 :, g, None] * a[g, g + 1 :]
    x = np.zeros(len(a))
    x[-1] = 1.0
    for k in range(len(a) - 2, -1, -1):
        x[k] = x[k + 1 :] @ a[k + 1 :, k]
    return x / x.sum()


def _venue_step(p_prime: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """nu: gamma, checked as the fixed point of p_prime, one step on to the
    venues, scaled so the top venue is exactly 1."""
    residual = np.max(np.abs(gamma @ p_prime - gamma))
    if residual > RESIDUAL_TOL:
        raise ModelError(f"stationary solve residual {residual:.3e} exceeds tolerance")
    nu = gamma @ beta
    top = nu.max()
    if top <= 0.0:
        raise ModelError("venue reputations are all zero")
    return nu / top
