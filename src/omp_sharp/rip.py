"""Exact restricted isometry constants by branch-and-bound subset enumeration."""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import BudgetExceeded, DegenerateDenominator, InvalidOrder, OutOfSharpRegion
from .linalg import as_matrix, as_matrix_stack

#: Default cap on C(cols, K), the number of subsets an order-K search covers.
DEFAULT_BUDGET = 10**6

#: Relative slack of both skip rules of the RIC search: a subtree whose
#: interlacing bound falls below the best delta so far by more than
#: PRUNE_TOLERANCE times the bounding block's largest eigenvalue, or a subset
#: whose moment bound falls below it by more than PRUNE_TOLERANCE times 1 +
#: that bound (at least the block's norm), is skipped.  This covers the
#: round-off of the eigensolver and of the bound, so a skipped subset can
#: never have a computed delta reaching the best one.
PRUNE_TOLERANCE = 1e-10

# Subsets are screened in chunks of at most this size, and an eigensolve
# covers at most this many blocks; neither changes a report.
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
    had their blocks eigensolved and ``subsets_pruned`` were skipped (see
    _search); the two sum to C(cols, K).
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


def _column_order(gram):
    """The columns of ``gram`` by descending row energy of E = gram - I,
    sum_j E_ij**2, each column's share of the deviation from an isometry.

    The sort is stable, so columns of equal energy keep their given order.
    """
    E = gram - np.eye(len(gram))
    return np.argsort(-np.einsum("ij,ij->i", E, E), kind="stable")


def _may_bound(n, K):
    """Whether the walk of _search over the K-subsets of n columns may
    compute a bound.

    Every bound covers more than _BOUND_MIN_SUBSETS subsets, all of them
    K-subsets of the columns after the first, so when C(n - 1, K) is at most
    that the walk computes none, whatever the best delta, and screens every
    subset in lexicographic order.  This holds at every order on 8 columns.
    """
    return math.comb(n - 1, K) > _BOUND_MIN_SUBSETS


def _moment_bound(blocks):
    """(tr E^8)^(1/8) = ||E^4||_F^(1/4) of each symmetric K x K block, E the
    block less the identity: from its delta, ||E||_2, to K^(1/8) times it.
    Its round-off is a few ulps, or below 1e-38 where E^8 underflows; where
    it overflows the bound is inf or NaN, which skips nothing."""
    with np.errstate(all="ignore"):
        E = blocks - np.eye(blocks.shape[-1])
        E2 = E @ E
        E4 = np.matmul(E2, E2, out=E)  # in E's place: one block-sized array less
        return np.einsum("...ij,...ij->...", E4, E4) ** 0.125


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


def _search(A, K, budget):
    """The order-K report of every matrix of the validated stack ``A``.

    Raises InvalidOrder or BudgetExceeded (see _subset_count) before any
    subset is evaluated.  A larger stack gets one search per matrix when the
    walk may bound (see _may_bound), and otherwise one search in the same
    chunks for the whole stack, each eigensolve covering every matrix, so
    counters too are those of exact_ric.

    The walk hands the K-subsets of columns to a leaf screen in chunks of at
    most _CHUNK.  The screen takes, per matrix, the moment bound of each
    principal K x K block of its Gram matrix (see _moment_bound), solves
    each matrix's block of largest bound first, then only the blocks whose
    bound is at least max(best delta so far, that block's delta) less
    PRUNE_TOLERANCE * (1 + bound), so every subset that can tie with the
    largest delta is solved.  A subset's delta is ``max(1 - lambda_min,
    lambda_max - 1)`` of its block, and after each chunk every matrix keeps
    the best of its best so far and its blocks just solved: the larger delta
    wins, and of equal ones the lexicographically smaller subset, since the
    walk need not be lexicographic.

    With a single Gram matrix, the walk is also a depth-first
    branch-and-bound over the columns taken in an order c_0, c_1, ... (see
    below).  Under a prefix P, the subsets from P + (c_i,) onward are P
    plus a subset of the columns c_i, c_i+1, ..., so their Gram blocks are
    principal submatrices of the block on P and those columns.  By Cauchy
    interlacing their deltas are at most that block's
    ``max(1 - lambda_min, lambda_max - 1)``.  The walk skips them all when
    that bound is below the best delta by more than PRUNE_TOLERANCE times
    the block's largest eigenvalue.  Pending subsets are screened before
    each bound so that the best delta is current.

    When the root's first bound (on every column but c_0) is worth
    computing, the columns are taken in the order of _column_order, so that
    the trailing blocks, which the bounds near the root cover, hold the
    columns that deviate least from an isometry.  On Gaussian matrices this
    makes the share of subsets the bounds skip larger than in the given
    column order.  Otherwise the walk keeps the given order (c_i = i), and
    the subsets come in lexicographic order; the few bounds it may still
    compute near the end of the root cover small blocks.

    A bound is computed only where it can pay off: on a set of more than
    _BOUND_MIN_SUBSETS subsets, and when the subsets walked if it fails
    number at least the block's column count cubed over _BOUND_CUBE_RATIO.
    """
    count, _, n = A.shape
    total = _subset_count(n, K, budget)
    if count != 1 and _may_bound(n, K):
        return [report for a in A for report in _search(a[None], K, budget)]
    bounding = count == 1  # the walk bounds a single Gram matrix only
    grams = (A[0].T @ A[0])[None] if bounding else A.swapaxes(1, 2) @ A
    matrices = np.arange(count)
    best_delta = np.full(count, -math.inf)
    best_subset = np.zeros((count, K), dtype=np.intp)
    best_eigenvalue = np.zeros(count)
    evaluated = np.zeros(count, dtype=np.intp)
    order = None
    pending = []
    pending_count = 0

    def solve(m, rows):
        """Eigenvalues of the blocks of matrices ``m`` on subsets ``rows``."""
        return np.concatenate([
            np.linalg.eigvalsh(grams[m[i : i + _CHUNK, None, None],
                                     rows[i : i + _CHUNK, :, None], rows[i : i + _CHUNK, None, :]])
            for i in range(0, len(m), _CHUNK)])

    def screen():
        """Screen and solve the pending subsets; keep each matrix's best."""
        nonlocal pending_count, best_delta, best_subset, best_eigenvalue, evaluated
        if not pending_count:
            return
        subsets = np.concatenate(pending)
        pending.clear()
        pending_count = 0
        if order is not None:
            subsets = np.sort(order[subsets], axis=1)
        for start in range(0, len(subsets), _CHUNK):
            idx = subsets[start : start + _CHUNK]
            step = max(1, _CHUNK // len(idx))  # matrices whose blocks fit one gather
            bound = np.concatenate([
                _moment_bound(grams[j : j + step, idx[:, :, None], idx[:, None, :]])
                for j in range(0, count, step)])
            slack = PRUNE_TOLERANCE * (1.0 + bound)
            todo = ~(bound < best_delta[:, None] - slack)
            top = bound.argmax(axis=1)
            m = todo[matrices, top].nonzero()[0]  # the others keep no subset
            if not len(m):
                continue
            values = solve(m, idx[top[m]])
            top_delta = np.maximum(1.0 - values[:, 0], values[:, -1] - 1.0)
            # a block's bound is at most its matrix's top one, so the rows
            # of the others are already all False
            todo[m] &= ~(bound[m] < np.maximum(best_delta[m], top_delta)[:, None] - slack[m])
            todo[m, top[m]] = False
            more, s = todo.nonzero()
            if len(more):
                values = np.concatenate([values, solve(more, idx[s])])
            m, rows = np.concatenate([m, more]), idx[np.concatenate([top[m], s])]
            evaluated += np.bincount(m, minlength=count)
            low, high = values[:, 0], values[:, -1]
            eigenvalue = np.where(1.0 - low >= high - 1.0, low, high)
            # each matrix's best so far and its blocks just solved, best first
            m = np.concatenate([matrices, m])
            delta = np.concatenate([best_delta, np.maximum(1.0 - low, high - 1.0)])
            rows = np.concatenate([best_subset, rows])
            eigenvalue = np.concatenate([best_eigenvalue, eigenvalue])
            rank = np.lexsort((*rows.T[::-1], -delta, m))
            first = rank[np.searchsorted(m[rank], matrices)]
            best_delta, best_subset, best_eigenvalue = delta[first], rows[first], eigenvalue[first]

    def worth_bounding(prefix, i, need):
        """True when bounding ``prefix`` + range(i, n) can pay for itself."""
        return (math.comb(n - i, need) > _BOUND_MIN_SUBSETS
                and math.comb(n - i - 1, need - 1) * _BOUND_CUBE_RATIO
                >= (len(prefix) + n - i) ** 3)

    def pruned(columns):
        """True when no K-subset of ``columns`` can reach the best delta."""
        if order is not None:
            columns = order[columns]
        w = np.linalg.eigvalsh(grams[0][np.ix_(columns, columns)])
        bound = max(1.0 - w[0], w[-1] - 1.0)
        return bound < best_delta[0] - PRUNE_TOLERANCE * abs(w[-1])

    def walk(prefix, start, need):
        """Screen ``prefix`` + T for every ``need``-subset T of range(start, n).

        The block on ``prefix`` + range(start, n) is not bounded again: the
        caller has already bounded the same columns, or judged it not worth
        it (at the root there is nothing to bound against yet).
        """
        nonlocal pending_count
        for i in range(start, n - need + 1):
            if bounding and i > start and worth_bounding(prefix, i, need):
                screen()
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
                    screen()
                return
            walk(prefix + (i,), i + 1, need - 1)

    if bounding and worth_bounding((), 1, K):
        order = _column_order(grams[0])
    walk((), 0, K)
    screen()
    return [
        RicReport(order=int(K), delta=d, witness_subset=tuple(i + 1 for i in subset),
                  witness_eigenvalue=w, subsets_evaluated=e, subsets_pruned=total - e)
        for d, subset, w, e in zip(best_delta.tolist(), best_subset.tolist(),
                                   best_eigenvalue.tolist(), evaluated.tolist())
    ]


def exact_ric(A, K, budget=DEFAULT_BUDGET):
    """Exact RIC of order ``K``: max over all K-subsets S of the deviation of
    the spectrum of A_S^T A_S from 1.

    The one-matrix case of the stacked search (see _search).  It skips only
    subtrees and subsets that cannot reach the best delta, so the report
    equals that of evaluating every subset.  Ties break toward the
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
    """True iff delta < 1/sqrt(K+1), with the boundary strictly excluded:
    p^2 (K+1) < q^2 on the integers of delta = p/q, exact for every float,
    numpy float or int delta and every integer K, numpy's included."""
    if K < 1:
        raise InvalidOrder(f"sparsity K must be >= 1, got {K}")
    if not (0.0 <= delta < 1.0):
        raise InvalidOrder(f"delta must lie in [0, 1), got {delta}")
    p, q = float(delta).as_integer_ratio()
    return p * p * (operator.index(K) + 1) < q * q


def _sharp_denominator(K, delta):
    """1 - sqrt(K+1) * delta, the denominator of every sharp-condition bound:
    OutOfSharpRegion unless in_sharp_region(K, delta), and DegenerateDenominator
    where delta is inside the region but the float difference rounds to 0."""
    if not in_sharp_region(K, delta):
        raise OutOfSharpRegion(f"delta {delta} not in (0, 1/sqrt({K + 1}))")
    denominator = 1.0 - math.sqrt(K + 1) * delta
    if denominator <= 0:
        raise DegenerateDenominator(f"1 - sqrt({K + 1}) * {delta} = {denominator} <= 0")
    return denominator

