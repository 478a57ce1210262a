"""Dense linear-algebra substrate.

Input validation, column selection, least squares (one system or a
stack), orthogonal-complement projection and stacked vector norms.  All
index sets handled here are 1-based, matching the serialized formats used
by the CLI.
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
    RANK_TOLERANCE times the largest.  This is least_squares_stack on a
    stack of one.
    """
    A_S = as_matrix(A_S)
    y = as_vector(y)
    if A_S.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"matrix has {A_S.shape[0]} rows but vector has length {y.shape[0]}"
        )
    X, failures = least_squares_stack(A_S[None], y[None, :, None])
    if failures:
        raise failures[0]
    return X[0, :, 0]


def least_squares_stack(A_S, Y):
    """least_squares for each matrix of the stack ``A_S`` and its right-hand
    sides, the columns of the matching matrix of ``Y``, as one stacked QR
    and solve, each bit-identical to its one-matrix form.  Returns the
    solutions, stacked as ``Y`` is, and the RankDeficient of each matrix
    whose columns are numerically dependent, by position (its solution is
    meaningless).  Inputs are not validated.  Raises RankDeficient when the
    matrices are wider than tall.
    """
    count, m, s = A_S.shape
    if s == 0:
        return np.zeros((count, 0, Y.shape[2])), {}
    if m < s:
        raise RankDeficient(f"{m}x{s} system has more columns than rows")
    Q, R = np.linalg.qr(A_S)
    diagonal = np.abs(np.diagonal(R, axis1=1, axis2=2))
    low, high = diagonal.min(axis=1), diagonal.max(axis=1)
    failures = {
        t: RankDeficient(
            f"column set numerically rank deficient (diagonal ratio "
            f"{low[t]:.3e} / {high[t]:.3e})"
        )
        for t in np.flatnonzero(low <= RANK_TOLERANCE * high).tolist()
    }
    R[list(failures)] = np.eye(s)  # their solutions are dropped; the others still solve
    return np.linalg.solve(R, Q.swapaxes(1, 2) @ Y), failures


def project_complement(A_S, u):
    """Project ``u`` onto the orthogonal complement of the span of ``A_S``.

    An empty column set leaves ``u`` unchanged.
    """
    A_S = as_matrix(A_S)
    u = as_vector(u)
    if A_S.shape[1] == 0:
        return u.copy()
    return u - A_S @ least_squares(A_S, u)


def norms(V):
    """||V[i]||_2 for each column vector V[i] of a stack, shaped 1 x 1, from
    the same dot product as np.linalg.norm takes on a vector."""
    return np.sqrt(V.swapaxes(1, 2) @ V)
