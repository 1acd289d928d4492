"""Reputation propagation between programs and venues.

Programs and venues form a bipartite chain: a program distributes its
reputation over the venues it publishes in (publication-share rows ``beta``),
and a venue distributes its reputation over the programs that fill it
(publication-share columns ``alpha``). The two-block chain is periodic, so it
is never solved directly; only the program-to-program aggregation
``beta @ alpha`` is, via Grassmann-Taksar-Heyman state reduction. Venue
reputations follow by one more transition step. The stability sweep's
prefixes of the reference programs are solved here too, a group at a time
with one GTH elimination, each with the bits it would get alone.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import EMPTY_VENUE_SET
from .counts import CountsTable
from .errors import EmptyVenueSetError, ModelError, RScoreError, ReducibleChainError

# Build-time stochasticity assertions on the raw matrices.
ROW_SUM_TOL = 1e-12
# Aggregated rows and the stationary fixed point.
AGGREGATE_TOL = 1e-10
RESIDUAL_TOL = 1e-10
# A group of prefixes closes once its betas and its GTH stack hold this many cells (8 MB).
_GROUP_CELLS = 1 << 20


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
        raise ModelError(
            f"reference program {programs[idle[0]]!r} has no publications in the "
            f"venue set; its transition row is undefined"
        )

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


def _prefix_reputations(
    reference: np.ndarray, programs: Sequence[str], k: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(venue columns, nu) of each prefix of 1..k rows of an integer reference
    block, smallest first; a prefix's venues are those its rows publish in.

    Prefixes are solved in groups, one :func:`_gth_stack` call each. The
    first prefix that fails raises its error once every smaller one is yielded.
    """
    seen = np.zeros(reference.shape[1], dtype=bool)
    group, cells, failure = [], 0, None
    for size in range(1, k + 1):
        seen |= reference[size - 1] > 0
        columns = np.flatnonzero(seen)
        try:
            _, beta, p_prime = _transition_blocks(reference[:size, columns], programs[:size])
        except RScoreError as exc:
            failure = exc
        else:
            group.append((columns, beta, p_prime))
            cells += beta.size
        if failure is not None or size == k or cells + len(group) * size**2 >= _GROUP_CELLS:
            gammas, reducible = _gth_stack([p_prime for *_, p_prime in group])
            for (columns, beta, p_prime), gamma in zip(group, gammas):
                yield columns, _venue_step(p_prime, gamma, beta)
            if reducible is not None or failure is not None:
                raise reducible or failure
            group, cells = [], 0


def _closure(adjacency: np.ndarray) -> np.ndarray:
    """Reach matrices of a stack of boolean n x n adjacency matrices, squared
    until they stop changing (about log2 n products); path counts are exact."""
    reach = (adjacency | np.eye(adjacency.shape[-1], dtype=bool)).astype(np.float64)
    while True:
        closed = (reach @ reach > 0).astype(np.float64)
        if np.array_equal(closed, reach):
            return closed > 0
        reach = closed


def _strongly_connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a directed graph given as a boolean
    n x n adjacency matrix, each sorted, ordered by their smallest state; two
    states share a component when each reaches the other."""
    reach = _closure(adjacency[None])[0]
    smallest = (reach & reach.T).argmax(axis=1)
    return [np.flatnonzero(smallest == root).tolist() for root in np.unique(smallest)]


def stationary_gth(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix.

    Uses Grassmann-Taksar-Heyman state reduction: states are eliminated one
    by one, with each pivot taken as the sum of the remaining off-diagonal
    row entries, so the elimination never subtracts like-signed quantities
    and needs no pivoting to stay stable. Reducible inputs are rejected with
    the list of strongly connected components, ordered by smallest state,
    rather than silently patched. It solves a stack of one with ``_gth_stack``,
    which eliminates a stack of matrices in lockstep, each in the corner of its
    layer, and gives every matrix the bits it would get alone.
    """
    a = np.array(p, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ModelError("empty transition matrix")
    # Written so that a NaN entry, whose row sum is NaN, fails the check.
    if np.any(a < 0) or not np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-8):
        raise ModelError("matrix is not row-stochastic")
    gammas, reducible = _gth_stack([a])
    if reducible is not None:
        raise reducible
    return gammas[0]


def _gth_stack(matrices: Sequence[np.ndarray]) -> tuple[list, ReducibleChainError | None]:
    """GTH stationary vectors of row-stochastic matrices of ascending size,
    solved in lockstep up to the first reducible one, and its error or None.

    Each s x s matrix fills the bottom-right corner of its layer of one zero
    stack, so the layers still eliminating at global state g (s >= n - g)
    are the last ones, with n - g - 1 entries left in each pivot row. A
    step's pivot sums are then, row by row, the pairwise sums of one matrix
    alone, and the rest is elementwise, so every matrix gets the bits it
    would get alone. The back-substitution is one BLAS dot per state.
    """
    sizes = [len(a) for a in matrices]
    n = max(sizes, default=0)
    stack = np.zeros((len(sizes), n, n))
    for layer, a, s in zip(stack, matrices, sizes):
        layer[n - s :, n - s :] = a
    # Padding reaches only itself: a chain is irreducible iff its corner is all reached.
    reach = _closure(stack > 0)
    solved = next((i for i, s in enumerate(sizes) if not reach[i, n - s :, n - s :].all()),
                  len(sizes))
    reducible = None if solved == len(sizes) else ReducibleChainError(
        _strongly_connected_components(matrices[solved] > 0))
    stack, sizes = stack[:solved], sizes[:solved]
    for g in range(n - 1):
        a = stack[bisect_left(sizes, n - g) :]
        pivot = a[:, g, g + 1 :].sum(axis=-1)
        if np.any(pivot <= 0.0):
            # unreachable after the irreducibility check; kept as a guard
            s = sizes[-len(a) :][int(np.argmax(pivot <= 0.0))]
            raise ModelError(f"zero pivot while eliminating state {g - n + s}")
        a[:, g + 1 :, g] /= pivot[:, None]
        a[:, g + 1 :, g + 1 :] += a[:, g + 1 :, g, None] * a[:, g, None, g + 1 :]
    gammas = []
    for layer, s in zip(stack, sizes):
        a = layer[n - s :, n - s :]
        x = np.zeros(s)
        x[s - 1] = 1.0
        for k in range(s - 2, -1, -1):
            x[k] = x[k + 1 :] @ a[k + 1 :, k]
        gammas.append(x / x.sum())
    return gammas, reducible


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
