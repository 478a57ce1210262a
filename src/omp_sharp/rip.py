"""Exact restricted isometry constants by exhaustive subset enumeration."""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, InvalidOrder
from .linalg import as_matrix, as_vector

#: Default cap on the number of enumerated subsets.
DEFAULT_BUDGET = 10**6

# Subsets are processed in lexicographic chunks of this size; the chunking
# only batches the eigensolves and never changes the reported witness.
_CHUNK = 4096


@dataclass(frozen=True)
class RicReport:
    """Exact order-K restricted isometry constant and the subset attaining it.

    ``witness_subset`` is 1-based ascending; ``witness_eigenvalue`` is the
    extremal Gram eigenvalue on that subset.
    """

    order: int
    delta: float
    witness_subset: tuple
    witness_eigenvalue: float

    def to_json_dict(self):
        return {
            "order": self.order,
            "delta": self.delta,
            "witness_subset": list(self.witness_subset),
            "witness_eigenvalue": self.witness_eigenvalue,
        }


def subset_spectra(gram, K):
    """Gram spectra of every K-subset of columns, in lexicographic order.

    Yields ``(subsets, eigenvalues)`` per chunk of at most _CHUNK subsets:
    ``subsets`` holds the 0-based column indices, one subset per row, and
    ``eigenvalues`` the ascending eigenvalues of each principal K x K block
    of ``gram``.
    """
    subsets = combinations(range(gram.shape[0]), K)
    while True:
        chunk = list(islice(subsets, _CHUNK))
        if not chunk:
            return
        idx = np.asarray(chunk)
        yield idx, np.linalg.eigvalsh(gram[idx[:, :, None], idx[:, None, :]])


def exact_ric(A, K, budget=DEFAULT_BUDGET):
    """Exact RIC of order ``K``: max over all K-subsets S of the deviation of
    the spectrum of A_S^T A_S from 1.

    Enumeration is lexicographic and ties break toward the lexicographically
    smallest subset, so the report is deterministic.  Raises BudgetExceeded
    when C(cols, K) exceeds ``budget``.
    """
    A = as_matrix(A)
    n = A.shape[1]
    if not (isinstance(K, (int, np.integer)) and 1 <= K <= n):
        raise InvalidOrder(f"order {K} outside [1, {n}]")
    total = math.comb(n, K)
    if total > budget:
        raise BudgetExceeded(
            f"C({n}, {K}) = {total} subsets exceeds budget {budget}",
            requested=total,
        )

    best_delta = -math.inf
    best_subset = None
    best_eigenvalue = None
    for subsets, eigenvalues in subset_spectra(A.T @ A, K):
        low = 1.0 - eigenvalues[:, 0]
        high = eigenvalues[:, -1] - 1.0
        deltas = np.maximum(low, high)
        j = int(np.argmax(deltas))  # first occurrence: lexicographic tie-break
        if deltas[j] > best_delta:
            best_delta = float(deltas[j])
            best_subset = tuple(int(i) + 1 for i in subsets[j])
            best_eigenvalue = float(
                eigenvalues[j, 0] if low[j] >= high[j] else eigenvalues[j, -1]
            )

    return RicReport(
        order=int(K),
        delta=best_delta,
        witness_subset=best_subset,
        witness_eigenvalue=best_eigenvalue,
    )


def in_sharp_region(K, delta):
    """True iff delta < 1/sqrt(K+1), with the boundary strictly excluded.

    The comparison is done on exact rationals (delta^2 * (K+1) < 1) so
    boundary values such as delta = 0.5 with K = 3 are never misclassified
    by floating-point rounding.
    """
    if K < 1:
        raise InvalidOrder(f"sparsity K must be >= 1, got {K}")
    if not (0.0 <= delta < 1.0):
        raise InvalidOrder(f"delta must lie in [0, 1), got {delta}")
    return Fraction(delta) ** 2 * (K + 1) < 1


def check_rip_inequality(A, x, delta):
    """Check (1-delta)||x||^2 <= ||Ax||^2 <= (1+delta)||x||^2 within
    1e-10 * ||x||^2 slack.

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
    tol = 1e-10 * xx
    return (1.0 - delta) * xx - tol <= axax <= (1.0 + delta) * xx + tol
