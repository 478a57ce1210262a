"""Exact restricted isometry constants by branch-and-bound subset enumeration."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InvalidOrder
from .linalg import as_matrix, as_matrix_stack, as_vector

#: Default cap on C(cols, K), the number of subsets an order-K search covers.
DEFAULT_BUDGET = 10**6

#: Relative slack for skipping a subtree: its interlacing bound must fall
#: below the best delta so far by more than PRUNE_TOLERANCE times the largest
#: eigenvalue of the bounding block.  This covers the eigensolver's round-off
#: on the block and on every subset inside it, so a skipped subset can never
#: have a computed delta above the best one.
PRUNE_TOLERANCE = 1e-10

#: Relative slack of check_rip_inequality, in units of ||x||^2.
RIP_CHECK_TOLERANCE = 1e-10

#: Distance from 1 within which in_sharp_region compares delta^2 (K+1) with 1
#: on exact rationals.  Outside it the float product decides: its roundings
#: (the square and the product; K + 1 is taken as a float only up to 2**53,
#: where it is exact) move it by at most about 2.3e-16 relative, far less
#: than this.
SHARP_REGION_BAND = 1e-12

# Subsets are processed in lexicographic chunks of at most this size; the
# chunking only batches the eigensolves and never changes the reported witness.
_CHUNK = 4096

# A subtree is bounded only when it holds more subsets than this; smaller
# ones go to the eigensolver batch unbounded, so a search over few subsets,
# such as every order of the sweeps' 8-column matrices (at most 35 subsets
# under a column), stays one batched eigensolve.
_BOUND_MIN_SUBSETS = 64

# A bound on a block of b columns is computed only when, should it fail to
# prune, the walk evaluates at least b**3 / _BOUND_CUBE_RATIO subsets before
# its next bound at the same depth.  With one BLAS thread on x86-64, one
# eigvalsh of b columns costs as much as evaluating about b**3 / 90 (b = 16)
# to b**3 / 1000 (b = 100) order-2 subsets, and each higher order costs more
# per subset.  So order 2 is never bounded, order 3 only on the last blocks
# of 9 to 12 columns at the root, and from order 4 on a bound that fails adds
# at most about a tenth of the work walked after it.
_BOUND_CUBE_RATIO = 32


@dataclass(frozen=True)
class RicReport:
    """Exact order-K restricted isometry constant and the subset attaining it.

    ``witness_subset`` is 1-based ascending; ``witness_eigenvalue`` is the
    extremal Gram eigenvalue on that subset.  ``subsets_evaluated`` subsets
    had their spectra computed and ``subsets_pruned`` were skipped by the
    interlacing bound; the two sum to C(cols, K).
    """

    order: int
    delta: float
    witness_subset: tuple
    witness_eigenvalue: float
    subsets_evaluated: int = None
    subsets_pruned: int = None

    def to_json_dict(self):
        return {
            "order": self.order,
            "delta": self.delta,
            "witness_subset": list(self.witness_subset),
            "witness_eigenvalue": self.witness_eigenvalue,
            "subsets_evaluated": self.subsets_evaluated,
            "subsets_pruned": self.subsets_pruned,
        }


@lru_cache(maxsize=256)
def _combinations(n, k):
    """Every k-subset of range(n) in lexicographic order, one per row."""
    if k == 1:  # the walk asks for one per column count, which outruns the cache
        table = np.arange(n, dtype=np.intp)[:, None]
    else:
        table = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    table.flags.writeable = False
    return table


def _peel_order(gram):
    """The columns of ``gram``, ordered so that each tail of the order spans
    a block near an isometry.

    Repeatedly takes, from the columns left, the one with the largest entry
    in the eigenvector of the block's extremal eigenvalue (the one farther
    from 1), and puts it next in the order.  One eigensolve per column.
    """
    rest = list(range(gram.shape[0]))
    order = []
    while len(rest) > 1:
        w, V = np.linalg.eigh(gram[np.ix_(rest, rest)])
        v = V[:, 0] if 1.0 - w[0] >= w[-1] - 1.0 else V[:, -1]
        order.append(rest.pop(int(np.argmax(np.abs(v)))))
    return np.array(order + rest, dtype=np.intp)


def _may_bound(n, K):
    """Whether the walk of subset_spectra over the K-subsets of n columns
    may compute a bound.

    Every bound covers more than _BOUND_MIN_SUBSETS subsets, all of them
    K-subsets of the columns after the first, so when C(n - 1, K) is at most
    that the walk computes none, whatever the threshold, and yields every
    subset in lexicographic order.  This holds at every order on 8 columns.
    """
    return math.comb(n - 1, K) > _BOUND_MIN_SUBSETS


def subset_spectra(gram, K, threshold=None, rank=None):
    """Gram spectra of the K-subsets of columns.

    Yields ``(subsets, eigenvalues)`` per chunk of at most _CHUNK subsets:
    ``subsets`` holds the 0-based column indices, one ascending subset per
    row, and ``eigenvalues`` the ascending eigenvalues of each principal
    K x K block of ``gram``.  Without ``threshold`` every subset is yielded,
    in lexicographic order, and ``gram`` may be a stack of Gram matrices on
    leading axes; ``eigenvalues`` then carries the same leading axes, and
    each chunk is one eigensolve over every matrix of the stack, holding at
    most _CHUNK blocks in all (at least one subset a chunk).

    With ``threshold``, a callable returning the largest delta found so far
    (-inf before any), the walk is a depth-first branch-and-bound over the
    columns taken in an order c_0, c_1, ... (see below).  Under a prefix P,
    the subsets from P + (c_i,) onward are P plus a subset of the columns
    c_i, c_i+1, ..., so their Gram blocks are principal submatrices of the
    block on P and those columns.  By Cauchy interlacing their deltas are at
    most that block's ``max(1 - lambda_min, lambda_max - 1)``.  The walk
    skips them all, and never yields them, when that bound is below
    ``threshold()`` by more than PRUNE_TOLERANCE times the block's largest
    eigenvalue: none of them can then reach a delta already yielded, so
    every subset that ties with the largest delta is still yielded.  Pending
    subsets are yielded before each bound so that ``threshold()`` is
    current.

    When the root's first bound (on every column but c_0) is worth
    computing, the columns are taken in the order of _peel_order, so that
    the trailing blocks, which the bounds near the root cover, are as near
    an isometry as one greedy pass makes them.  On Gaussian matrices this
    makes the share of subsets pruned both larger and less dependent on the
    draw than in the given column order.  Otherwise the walk keeps the given
    order (c_i = i), and the subsets come in lexicographic order; the few
    bounds it may still compute near the end of the root cover small blocks.

    A bound is computed only where it can pay off: on a set of more than
    _BOUND_MIN_SUBSETS subsets, when the subsets walked if it fails number at
    least the block's column count cubed over _BOUND_CUBE_RATIO, and when the
    best delta exceeds 1 or the block has at most ``rank`` columns (an upper
    bound on the rank of ``gram``, such as the row count of A for
    ``gram = A.T @ A``).  A block on more columns is singular, so its bound is
    at least 1 and cannot prune below a best delta of 1.
    """
    n = gram.shape[-1]
    rank = n if rank is None else rank
    chunk = max(1, _CHUNK // max(1, math.prod(gram.shape[:-2])))
    order = None
    pending = []
    pending_count = 0

    def flush():
        nonlocal pending_count
        if not pending_count:
            return
        subsets = np.concatenate(pending)
        pending.clear()
        pending_count = 0
        if order is not None:
            subsets = np.sort(order[subsets], axis=1)
        for start in range(0, len(subsets), chunk):
            idx = subsets[start : start + chunk]
            yield idx, np.linalg.eigvalsh(gram[..., idx[:, :, None], idx[:, None, :]])

    def worth_bounding(prefix, i, need):
        """True when bounding ``prefix`` + range(i, n) can pay for itself."""
        return (math.comb(n - i, need) > _BOUND_MIN_SUBSETS
                and math.comb(n - i - 1, need - 1) * _BOUND_CUBE_RATIO
                >= (len(prefix) + n - i) ** 3)

    def pruned(columns):
        """True when no K-subset of ``columns`` can beat threshold()."""
        best = threshold()
        if best == -math.inf or (len(columns) > rank and best <= 1.0):
            return False
        if order is not None:
            columns = order[columns]
        w = np.linalg.eigvalsh(gram[np.ix_(columns, columns)])
        bound = max(1.0 - w[0], w[-1] - 1.0)
        return bound < best - PRUNE_TOLERANCE * abs(w[-1])

    def walk(prefix, start, need):
        """Subsets ``prefix`` + T for every ``need``-subset T of range(start, n).

        The block on ``prefix`` + range(start, n) is not bounded again: the
        caller has already bounded the same columns, or judged it not worth
        it (at the root there is nothing to bound against yet).
        """
        nonlocal pending_count
        for i in range(start, n - need + 1):
            if threshold is not None and i > start and worth_bounding(prefix, i, need):
                yield from flush()
                if pruned(list(prefix) + list(range(i, n))):
                    return
            if math.comb(n - i - 1, need - 1) <= _BOUND_MIN_SUBSETS:
                # the children from i on are small: emit them as one table
                table = _combinations(n - i, need)
                rows = np.empty((len(table), K), dtype=np.intp)
                rows[:, : len(prefix)] = prefix
                rows[:, len(prefix) :] = table + i
                pending.append(rows)
                pending_count += len(rows)
                if pending_count >= _CHUNK:
                    yield from flush()
                return
            yield from walk(prefix + (i,), i + 1, need - 1)

    if threshold is not None and worth_bounding((), 1, K):
        order = _peel_order(gram)
    yield from walk((), 0, K)
    yield from flush()


def _subset_count(n, K, budget):
    """C(n, K), the subsets an order-K search over n columns covers.

    Raises InvalidOrder unless 1 <= K <= n, and BudgetExceeded when the
    count exceeds ``budget``.
    """
    if not (isinstance(K, (int, np.integer)) and 1 <= K <= n):
        raise InvalidOrder(f"order {K} outside [1, {n}]")
    total = math.comb(n, K)
    if total > budget:
        raise BudgetExceeded(
            f"C({n}, {K}) = {total} subsets exceeds budget {budget}",
            requested=total,
        )
    return total


def _deltas(eigenvalues):
    """max(1 - lambda_min, lambda_max - 1) of each block of a chunk of
    ascending eigenvalues."""
    return np.maximum(1.0 - eigenvalues[..., 0], eigenvalues[..., -1] - 1.0)


def _chunk_best(subsets, eigenvalues, deltas):
    """The largest delta of one chunk of subset_spectra, per matrix.

    ``deltas`` is _deltas(eigenvalues).  Returns ``(delta, row,
    eigenvalue)``, each with the leading axes of ``deltas`` but the last:
    the largest delta, the row of ``subsets`` attaining it, and that
    subset's extremal eigenvalue.  Among rows that tie, the
    lexicographically smallest subset wins, since the walk need not be
    lexicographic.
    """
    row = deltas.argmax(axis=-1)
    delta = deltas.max(axis=-1)
    ties = deltas == delta[..., None]
    if np.count_nonzero(ties) > row.size:
        rank = np.empty(len(subsets), dtype=np.intp)
        rank[np.lexsort(subsets.T[::-1])] = np.arange(len(subsets))
        row = np.argmin(np.where(ties, rank, len(subsets)), axis=-1)
    at = np.indices(row.shape, sparse=True) + (row,)
    low, high = eigenvalues[..., 0][at], eigenvalues[..., -1][at]
    return delta, row, np.where(1.0 - low >= high - 1.0, low, high)


def exact_ric(A, K, budget=DEFAULT_BUDGET):
    """Exact RIC of order ``K``: max over all K-subsets S of the deviation of
    the spectrum of A_S^T A_S from 1.

    The search is the branch-and-bound of subset_spectra, which skips only
    subtrees that cannot hold a subset reaching the best delta, so the
    report equals that of evaluating every subset.  Ties break toward the
    lexicographically smallest subset, so the report is deterministic.
    Raises BudgetExceeded when C(cols, K) exceeds ``budget``, before any
    subset is evaluated.
    """
    A = as_matrix(A)
    total = _subset_count(A.shape[1], K, budget)
    best_delta = -math.inf
    best_subset = None
    best_eigenvalue = None
    evaluated = 0
    for subsets, eigenvalues in subset_spectra(A.T @ A, K, lambda: best_delta, A.shape[0]):
        evaluated += len(subsets)
        deltas = _deltas(eigenvalues)
        if deltas.max() < best_delta:
            continue
        delta, row, eigenvalue = _chunk_best(subsets, eigenvalues, deltas)
        subset = tuple(int(i) + 1 for i in subsets[row])
        if delta > best_delta or subset < best_subset:
            best_delta = float(delta)
            best_subset = subset
            best_eigenvalue = float(eigenvalue)

    return RicReport(
        order=int(K),
        delta=best_delta,
        witness_subset=best_subset,
        witness_eigenvalue=best_eigenvalue,
        subsets_evaluated=evaluated,
        subsets_pruned=total - evaluated,
    )


def exact_rics(A, K):
    """exact_ric of every matrix of the stack ``A`` (matrices on the leading
    axis), as a list of reports each ``==`` to exact_ric's.

    When the walk over the K-subsets computes no bound (see _may_bound), it
    runs once for the whole stack, unpruned, each eigensolve covering every
    matrix, and each matrix is reduced with exact_ric's tie rule.  Otherwise
    exact_ric runs on each matrix.  Raises what exact_ric raises, before
    any subset is evaluated.
    """
    A = as_matrix_stack(A)
    n = A.shape[2]
    total = _subset_count(n, K, DEFAULT_BUDGET)
    if _may_bound(n, K):
        return [exact_ric(a, K) for a in A]
    best_delta = np.full(len(A), -math.inf)
    best_subset = np.zeros((len(A), K), dtype=np.intp)
    best_eigenvalue = np.zeros(len(A))
    for subsets, eigenvalues in subset_spectra(np.swapaxes(A, 1, 2) @ A, K):
        delta, row, eigenvalue = _chunk_best(subsets, eigenvalues, _deltas(eigenvalues))
        # chunks come in lexicographic order: a tie keeps the earlier subset
        better = delta > best_delta
        best_delta[better] = delta[better]
        best_subset[better] = subsets[row[better]]
        best_eigenvalue[better] = eigenvalue[better]
    return [
        RicReport(
            order=int(K),
            delta=float(d),
            witness_subset=tuple(int(i) + 1 for i in subset),
            witness_eigenvalue=float(w),
            subsets_evaluated=total,
            subsets_pruned=0,
        )
        for d, subset, w in zip(best_delta, best_subset, best_eigenvalue)
    ]


def in_sharp_region(K, delta):
    """True iff delta < 1/sqrt(K+1), with the boundary strictly excluded.

    The answer is that of delta^2 * (K+1) < 1 on exact rationals, so
    boundary values such as delta = 0.5 with K = 3 are never misclassified
    by floating-point rounding.  The float product, off by at most a few
    units of round-off, decides every case outside SHARP_REGION_BAND of 1;
    only the cases inside it, and every K + 1 above 2**53, are compared as
    rationals.
    """
    if K < 1:
        raise InvalidOrder(f"sparsity K must be >= 1, got {K}")
    if not (0.0 <= delta < 1.0):
        raise InvalidOrder(f"delta must lie in [0, 1), got {delta}")
    if K + 1 <= 2**53:
        product = delta * delta * (K + 1)
        if abs(product - 1.0) > SHARP_REGION_BAND:
            return product < 1.0
    return Fraction(delta) ** 2 * (K + 1) < 1


def check_rip_inequality(A, x, delta):
    """Check (1-delta)||x||^2 <= ||Ax||^2 <= (1+delta)||x||^2 within
    RIP_CHECK_TOLERANCE * ||x||^2 slack.

    ``x`` may have fewer entries than A has columns; missing entries are zero.
    """
    A = as_matrix(A)
    x = as_vector(x)
    n = A.shape[1]
    if x.shape[0] > n:
        raise DimensionMismatch(f"vector of length {x.shape[0]} against {n} columns")
    if x.shape[0] < n:
        x = np.concatenate([x, np.zeros(n - x.shape[0])])
    xx = float(x @ x)
    axax = float(np.linalg.norm(A @ x) ** 2)
    tol = RIP_CHECK_TOLERANCE * xx
    return (1.0 - delta) * xx - tol <= axax <= (1.0 + delta) * xx + tol
