"""Exact restricted isometry constants by branch-and-bound subset enumeration."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded, InvalidOrder
from .linalg import as_matrix, as_matrix_stack

#: Default cap on C(cols, K), the number of subsets an order-K search covers.
DEFAULT_BUDGET = 10**6

#: Relative slack for skipping a subtree: its interlacing bound must fall
#: below the best delta so far by more than PRUNE_TOLERANCE times the largest
#: eigenvalue of the bounding block.  This covers the eigensolver's round-off
#: on the block and on every subset inside it, so a skipped subset can never
#: have a computed delta above the best one.
PRUNE_TOLERANCE = 1e-10

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


def subset_spectra(gram, K, threshold=None):
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
    _BOUND_MIN_SUBSETS subsets, and when the subsets walked if it fails
    number at least the block's column count cubed over _BOUND_CUBE_RATIO.
    """
    n = gram.shape[-1]
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
        if best == -math.inf:
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


def _chunk_best(subsets, eigenvalues):
    """The largest delta of one chunk of subset_spectra, per matrix.

    ``eigenvalues`` holds the ascending eigenvalues of each subset's block,
    matrices on the leading axis, and a subset's delta is
    ``max(1 - lambda_min, lambda_max - 1)`` of its block.  Returns
    ``(delta, row, eigenvalue)``, one entry per matrix: the largest delta,
    the row of ``subsets`` attaining it, and that subset's extremal
    eigenvalue.  Among rows that tie, the lexicographically smallest subset
    wins, since the walk need not be lexicographic.
    """
    low, high = eigenvalues[..., 0], eigenvalues[..., -1]
    deltas = np.maximum(1.0 - low, high - 1.0)
    matrices = np.arange(len(deltas))
    row = deltas.argmax(axis=1)
    delta = deltas[matrices, row]
    ties = deltas == delta[:, None]
    if np.count_nonzero(ties) > len(row):
        rank = np.empty(len(subsets), dtype=np.intp)
        rank[np.lexsort(subsets.T[::-1])] = np.arange(len(subsets))
        row = np.argmin(np.where(ties, rank, len(subsets)), axis=1)
    low, high = low[matrices, row], high[matrices, row]
    return delta, row, np.where(1.0 - low >= high - 1.0, low, high)


def _search(A, K, budget):
    """The order-K report of every matrix of the validated stack ``A``.

    A single matrix gets the branch-and-bound walk of subset_spectra, pruned
    against its best delta so far.  A larger stack gets one such walk per
    matrix when the walk may bound (see _may_bound), and otherwise one
    unpruned walk for the whole stack, each eigensolve covering every
    matrix.  Across chunks the larger delta wins, and of equal ones the
    lexicographically smaller subset.  Raises InvalidOrder or
    BudgetExceeded (see _subset_count) before any subset is evaluated.
    """
    count, _, n = A.shape
    total = _subset_count(n, K, budget)
    if count != 1 and _may_bound(n, K):
        return [report for a in A for report in _search(a[None], K, budget)]
    best_delta = np.full(count, -math.inf)
    best_subset = np.zeros((count, K), dtype=np.intp)
    best_eigenvalue = np.zeros(count)
    evaluated = 0
    if count == 1:  # subset_spectra bounds a single Gram matrix only
        spectra = subset_spectra(A[0].T @ A[0], K, lambda: best_delta[0])
    else:
        spectra = subset_spectra(A.swapaxes(1, 2) @ A, K)
    for subsets, eigenvalues in spectra:
        evaluated += len(subsets)
        delta, row, eigenvalue = _chunk_best(
            subsets, eigenvalues.reshape(count, len(subsets), K))
        witness = subsets[row]
        better = delta > best_delta
        for b in (delta == best_delta).nonzero()[0].tolist():
            better[b] = witness[b].tolist() < best_subset[b].tolist()
        best_delta = np.where(better, delta, best_delta)
        best_subset = np.where(better[:, None], witness, best_subset)
        best_eigenvalue = np.where(better, eigenvalue, best_eigenvalue)
    return [
        RicReport(
            order=int(K),
            delta=d,
            witness_subset=tuple(i + 1 for i in subset),
            witness_eigenvalue=w,
            subsets_evaluated=evaluated,
            subsets_pruned=total - evaluated,
        )
        for d, subset, w in zip(best_delta.tolist(), best_subset.tolist(),
                                best_eigenvalue.tolist())
    ]


def exact_ric(A, K, budget=DEFAULT_BUDGET):
    """Exact RIC of order ``K``: max over all K-subsets S of the deviation of
    the spectrum of A_S^T A_S from 1.

    The one-matrix case of the stacked search (see _search).  It skips only
    subtrees that cannot hold a subset reaching the best delta, so the
    report equals that of evaluating every subset.  Ties break toward the
    lexicographically smallest subset, so the report is deterministic.
    Raises BudgetExceeded when C(cols, K) exceeds ``budget``, before any
    subset is evaluated.
    """
    return _search(as_matrix(A)[None], K, budget)[0]


def exact_rics(A, K):
    """exact_ric of every matrix of the stack ``A`` (matrices on the leading
    axis), as a list of reports each ``==`` to exact_ric's.

    Where the walk computes no bound, one walk covers the whole stack (see
    _search).  Raises what exact_ric raises, before any subset is evaluated.
    """
    return _search(as_matrix_stack(A), K, DEFAULT_BUDGET)


def linf_threshold_rics(A, K, unit_norm_columns=False):
    """The RICs the linf stopping threshold takes at sparsity ``K``, for
    each matrix of the stack ``A``: the lists of delta_(K+1) and of
    delta_2, searched in that order, each order capped at the column count.

    Each distinct order is searched once.  Where the two orders coincide
    (K = 1, or n <= 2), delta_2 is delta_(K+1) itself.  With
    ``unit_norm_columns`` the threshold does not read delta_2, so it is not
    searched either, and delta_(K+1) stands in for it.  Otherwise each
    delta_2 is capped at its delta_(K+1): round-off can put the enumerated
    delta_2 an ulp above it, which monotonicity rules out.  So every
    delta_2 returned is at most its delta_(K+1).
    """
    A = as_matrix_stack(A)
    n = A.shape[2]
    order = min(K + 1, n)
    deltas = [report.delta for report in exact_rics(A, order)]
    if unit_norm_columns or order == min(2, n):
        return deltas, list(deltas)
    deltas2 = [min(report.delta, d) for report, d in zip(exact_rics(A, min(2, n)), deltas)]
    return deltas, deltas2


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

