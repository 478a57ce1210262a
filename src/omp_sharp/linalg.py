"""Dense linear-algebra substrate.

Input validation, column selection, least squares and orthogonal-complement
projection.  All index sets handled here are 1-based, matching the
serialized formats used by the CLI.
"""

import numpy as np

from .errors import DimensionMismatch, DuplicateIndex, IndexOutOfRange, RankDeficient

#: Relative magnitude below which an R-factor diagonal entry marks rank deficiency.
RANK_TOLERANCE = 1e-12


def _as_finite(a, ndim, kind):
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim:
        raise DimensionMismatch(f"expected a {kind}, got array of ndim {a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{kind} contains non-finite entries")
    return a


def as_matrix(a):
    """Validate and return a 2-D float array with finite entries."""
    return _as_finite(a, 2, "matrix")


def as_matrix_stack(a):
    """Validate and return a 3-D float array with finite entries: a stack of
    matrices on the leading axis."""
    return _as_finite(a, 3, "matrix stack")


def as_vector(u):
    """Validate and return a 1-D float array with finite entries."""
    return _as_finite(u, 1, "vector")


def columns_submatrix(A, subset):
    """Columns of ``A`` indexed by the 1-based index set ``subset``, ascending.

    Raises IndexOutOfRange or DuplicateIndex on a malformed subset.
    """
    A = as_matrix(A)
    indices = list(subset)
    n = A.shape[1]
    for i in indices:
        if not (isinstance(i, (int, np.integer)) and 1 <= i <= n):
            raise IndexOutOfRange(f"column index {i} outside [1, {n}]")
    if len(set(indices)) != len(indices):
        raise DuplicateIndex(f"duplicate column indices in {indices}")
    return A[:, [i - 1 for i in sorted(indices)]]


def least_squares(A_S, y):
    """Solve min_x ||y - A_S x||_2 for a full-column-rank ``A_S``.

    Uses a Householder QR factorization rather than the normal equations,
    which stays accurate when the column set is poorly conditioned.
    Raises RankDeficient when the smallest R diagonal is below
    RANK_TOLERANCE times the largest.
    """
    A_S = as_matrix(A_S)
    y = as_vector(y)
    if A_S.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"matrix has {A_S.shape[0]} rows but vector has length {y.shape[0]}"
        )
    if A_S.shape[1] == 0:
        return np.zeros(0)
    if A_S.shape[0] < A_S.shape[1]:
        raise RankDeficient(
            f"{A_S.shape[0]}x{A_S.shape[1]} system has more columns than rows"
        )
    Q, R = np.linalg.qr(A_S)
    diag = np.abs(np.diag(R))
    if diag.min() <= RANK_TOLERANCE * diag.max():
        raise RankDeficient(
            f"column set numerically rank deficient (diagonal ratio "
            f"{diag.min():.3e} / {diag.max():.3e})"
        )
    return np.linalg.solve(R, Q.T @ y)


def project_complement(A_S, u):
    """Project ``u`` onto the orthogonal complement of the span of ``A_S``.

    An empty column set leaves ``u`` unchanged.
    """
    A_S = as_matrix(A_S)
    u = as_vector(u)
    if A_S.shape[1] == 0:
        return u.copy()
    return u - A_S @ least_squares(A_S, u)

