"""Dense linear-algebra substrate.

Input validation, least squares over a stack of systems, and stacked
vector norms.
"""

import numpy as np

from .errors import DimensionMismatch, RankDeficient

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


def least_squares_stack(A_S, Y):
    """Solve min_X ||Y - A_S X||_F for each matrix of the stack ``A_S`` and
    its right-hand sides, the columns of the matching matrix of ``Y``.

    One stacked Householder QR and solve, each bit-identical to its
    one-matrix form; QR rather than the normal equations stays accurate
    when a column set is poorly conditioned.  Returns the solutions,
    stacked as ``Y`` is, and a RankDeficient, by position, for each matrix
    whose smallest R diagonal is at most RANK_TOLERANCE times its largest
    (its solution is meaningless).  Inputs are not validated.  Raises
    RankDeficient when the matrices are wider than tall.
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


def norms(V):
    """||V[i]||_2 for each column vector V[i] of a stack, shaped 1 x 1, from
    the same dot product as np.linalg.norm takes on a vector."""
    return np.sqrt(V.swapaxes(1, 2) @ V)
