"""Orthogonal matching pursuit with pluggable noise-aware stopping rules.

Also houses the closed-form recovery thresholds: the minimum-magnitude bounds
for l2- and linf-bounded noise, the linf stopping threshold, and the prior-art
bounds used for comparison tables.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    InvalidDeltaOrder,
    InvalidOrder,
)
from .linalg import RANK_TOLERANCE, as_matrix, as_matrix_stack, as_vector, norms
from .rip import _sharp_denominator

#: Relative gap below which two correlation magnitudes count as tied.
TIE_TOLERANCE = 1e-12

#: Largest |‖a_j‖₂ − 1| over the columns at which a matrix counts as having
#: unit-norm columns, the premise of the relaxed linf threshold.  Columns
#: normalised in float64 are within a few ulps of 1, and entries written
#: with 7 or more significant digits keep them within 5e-7.  The relaxed
#: factor drops the column-norm term that the general factor bounds by
#: sqrt(1 + delta_2), so a norm off by t changes that term by about t.
UNIT_NORM_TOLERANCE = 1e-6

STOP_RULE_MET = "rule_met"
STOP_MAX_ITERATIONS = "max_iterations"
STOP_RANK_DEFICIENT = "rank_deficient"
STOP_STALLED = "stalled"


@dataclass(frozen=True)
class SparseSignal:
    """A length-n signal together with its exact support (1-based).

    The support is computed from the values with an exact != 0.0 test, never
    a tolerance.  ``sparsity`` optionally records a declared sparsity level K.
    """

    values: np.ndarray
    sparsity: int = None
    support: frozenset = field(init=False)

    def __post_init__(self):
        values = as_vector(self.values)
        object.__setattr__(self, "values", values)
        support = frozenset((np.flatnonzero(values) + 1).tolist())
        object.__setattr__(self, "support", support)
        if self.sparsity is not None and len(support) > self.sparsity:
            raise InvalidOrder(
                f"support size {len(support)} exceeds declared sparsity {self.sparsity}"
            )

    @classmethod
    def _built(cls, values, sparsity=None):
        """The signal of ``values`` the package built itself: a finite 1-D
        float array with at most ``sparsity`` nonzeros, not validated again."""
        signal = object.__new__(cls)
        support = frozenset((values.nonzero()[0] + 1).tolist())
        signal.__dict__.update(values=values, sparsity=sparsity, support=support)
        return signal

    @property
    def n(self):
        return self.values.shape[0]

    def min_magnitude(self):
        """Smallest |x_i| over the support; 0.0 for the zero signal."""
        if not self.support:
            return 0.0
        return float(min(abs(self.values[i - 1]) for i in self.support))


class StoppingRule:
    """Base class for OMP stopping rules."""

    def met(self, k, residual_l2, correlation_linf):
        """Whether the run stops after iteration ``k`` (0 = before the first),
        given ||r^k||_2 and ||A^T r^k||_inf."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedIterations(StoppingRule):
    """Run exactly ``count`` iterations, ignoring the residual."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise InvalidOrder(f"iteration count must be >= 1, got {self.count}")

    def met(self, k, residual_l2, correlation_linf):
        return k >= self.count


@dataclass(frozen=True)
class ResidualL2(StoppingRule):
    """Stop once ||r^k||_2 <= epsilon; also checked on r^0 = y."""

    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise InvalidOrder(f"epsilon must be > 0, got {self.epsilon}")

    def met(self, k, residual_l2, correlation_linf):
        return residual_l2 <= self.epsilon


@dataclass(frozen=True)
class CorrelationLInf(StoppingRule):
    """Stop once ||A^T r^k||_inf <= threshold, checked after each iteration.

    The threshold is either the corrected one from linf_stopping_threshold or,
    as in the paper's Example 1, the bare noise level epsilon.
    """

    threshold: float

    def __post_init__(self):
        if not self.threshold > 0:
            raise InvalidOrder(f"threshold must be > 0, got {self.threshold}")

    def met(self, k, residual_l2, correlation_linf):
        return correlation_linf <= self.threshold


@dataclass(frozen=True)
class OmpIteration:
    selected_index: int
    correlations: np.ndarray
    residual_l2: float
    correlation_linf: float


@dataclass(frozen=True)
class OmpTrace:
    iterations: tuple
    final_support: frozenset
    final_estimate: SparseSignal
    stop_reason: str

    def to_json_dict(self):
        return {
            "iterations": [
                {
                    "selected_index": it.selected_index,
                    "correlations": it.correlations.tolist(),
                    "residual_l2": it.residual_l2,
                    "correlation_linf": it.correlation_linf,
                }
                for it in self.iterations
            ],
            "final_support": sorted(self.final_support),
            "final_estimate": self.final_estimate.values.tolist(),
            "stop_reason": self.stop_reason,
        }


def _back_substitute(R, b):
    """Solve R x = b for a nonsingular upper-triangular ``R``."""
    x = np.empty(len(b))
    for i in range(len(b) - 1, -1, -1):
        x[i] = (b[i] - R[i, i + 1:] @ x[i + 1:]) / R[i, i]
    return x


def _kept(keep, *arrays):
    """Each of ``arrays`` reduced to the rows of the mask ``keep``."""
    return tuple(a[keep] for a in arrays)


def _max_iterations(A, rules, max_iterations):
    """``max_iterations`` for the m x n matrices of ``A`` (None is min(m,
    n)), checked to lie in [1, min(m, n)] and to be at least the count of
    every FixedIterations of ``rules``; raises InvalidOrder otherwise."""
    cap = min(A.shape[-2:])
    if max_iterations is None:
        max_iterations = cap
    if not (1 <= max_iterations <= cap):
        raise InvalidOrder(f"max_iterations {max_iterations} outside [1, {cap}]")
    for rule in rules:
        if isinstance(rule, FixedIterations) and rule.count > max_iterations:
            raise InvalidOrder(
                f"FixedIterations({rule.count}) exceeds max_iterations {max_iterations}"
            )
    return max_iterations


def check_omp_inputs(y, A, rule, max_iterations=None):
    """The checks run_omp makes of its inputs before its loop, for a caller
    that refuses them before it starts: DimensionMismatch unless ``y`` has
    one entry per row of the matrix ``A``, and InvalidOrder unless
    ``max_iterations`` suits A and ``rule`` (see _max_iterations).  Returns
    ``max_iterations`` resolved."""
    if np.shape(y) != A.shape[:1]:
        raise DimensionMismatch(f"matrix has {A.shape[0]} rows but y has shape {np.shape(y)}")
    return _max_iterations(A, [rule], max_iterations)


def _solve(Y, A, rules, max_iterations, tie_break_rng):
    """The OMP loop of run_omp and run_omps, on validated inputs (see
    _max_iterations): problem i is ``Y[i]``, ``A[i]`` and ``rules[i]``.

    The problems run in lockstep.  Pass k of the loop starts from the
    residual r^k, with r^0 = y: one product A^T r^k gives its correlations,
    which complete iteration k's record (for k >= 1), and the rules are
    checked on r^k.  The problems that go on select column k + 1, extend
    their QR factorization by it and form r^(k+1) for the next pass.  The
    state of those still running sits on a leading axis that shrinks as
    problems stop; ``problem`` maps its rows back to the stack.  Vectors are
    kept as m x 1 columns, so every product is one stacked matmul, and each
    one makes the same BLAS call, with the same strides, as its one-problem
    form: the bits do not depend on the stack.  Only run_omp, on a stack of
    one, passes a ``tie_break_rng``.

    Returns the traces and, by position, the DimensionMismatch of each
    problem whose measurements (it never enters the loop) or estimate are
    not finite; its trace is None.
    """
    count, m, n = A.shape
    finite = np.isfinite(Y).all(axis=1)
    problem = np.flatnonzero(finite)
    # A[i][:, selected[problem[i]]] = Q[i, :k].T @ R[i, :k, :k]: the rows of
    # Q[i] are q_1..q_k.  The buffers are left untouched when allocated, so
    # their pages take memory only as the run fills them.
    Q = np.empty((len(problem), max_iterations, m))
    R = np.zeros((len(problem), max_iterations, max_iterations))
    qty = np.empty((len(problem), max_iterations, 1))  # Q[i, :k] @ Y[i]
    # BLAS sums a dot product in another order when a vector has a non-unit
    # stride, as a column of a row-major A[i] has.  The selected columns are
    # gathered into a buffer that keeps the unit or non-unit stride of A's
    # columns, so that q_1 . a_s has the bits it has on the column itself.
    column_buffer = np.empty((count, m, 1 if A.strides[1] == A.itemsize else 2))
    A_t = A.swapaxes(1, 2)
    if len(problem) < count:
        A_t, Y = _kept(finite, A_t, Y)  # copies, so only when a row is dropped
    iterations = [[] for _ in range(count)]
    selected = [[] for _ in range(count)]  # 0-based, in selection order
    largest_diagonal = [0.0] * count
    traces = [None] * count
    estimates = np.zeros((count, n))

    def stop(reasons, k):
        """Finish each row with a reason; returns the mask of the rows left."""
        keep = np.ones(len(problem), dtype=bool)
        for i, reason in reasons:
            p = int(problem[i])
            estimates[p, selected[p]] = _back_substitute(R[i, :k, :k], qty[i, :k, 0])
            traces[p] = OmpTrace(
                iterations=tuple(iterations[p]),
                final_support=frozenset(index + 1 for index in selected[p]),
                final_estimate=SparseSignal._built(estimates[p]),
                stop_reason=reason,
            )
            keep[i] = False
        return keep

    Y = residual = Y[:, :, None]
    for k in range(max_iterations + 1 if len(problem) else 0):
        next_correlations = (A_t @ residual)[:, :, 0]
        magnitudes = np.abs(next_correlations)
        correlation_linf = magnitudes.max(axis=1, keepdims=True)
        reasons = []
        indices = s.tolist() if k else None
        for i, (p, l2, linf) in enumerate(zip(
            problem.tolist(), norms(residual).ravel().tolist(), correlation_linf.ravel().tolist(),
        )):
            if k:
                selected[p].append(indices[i])
                iterations[p].append(OmpIteration(
                    selected_index=indices[i] + 1, correlations=correlations[i],
                    residual_l2=l2, correlation_linf=linf,
                ))
            # before the first selection only ||r^0|| counts, so no
            # correlation rule fires on r^0 unless A^T r^0 = 0
            if rules[p].met(k, l2, linf if k or linf == 0.0 else math.inf):
                reasons.append((i, STOP_RULE_MET))
            elif k == max_iterations:
                reasons.append((i, STOP_MAX_ITERATIONS))
            elif linf == 0.0:
                reasons.append((i, STOP_STALLED))
        correlations = next_correlations
        if reasons:
            A_t, Y, Q, R, qty, problem, correlations, magnitudes, correlation_linf = _kept(
                stop(reasons, k), A_t, Y, Q, R, qty, problem,
                correlations, magnitudes, correlation_linf,
            )
            if not len(problem):
                break

        # Selection: the largest |correlation|, ties within TIE_TOLERANCE
        # relative to the smallest index, or drawn at random with an rng.
        tied = correlation_linf - magnitudes <= TIE_TOLERANCE * correlation_linf
        s = tied.argmax(axis=1)
        if tie_break_rng is not None:
            for i in np.flatnonzero(tied.sum(axis=1) > 1):
                s[i] = tie_break_rng.choice(np.flatnonzero(tied[i]))

        # Gram-Schmidt with one re-orthogonalization pass.
        column = column_buffer[: len(problem), :, :1]
        column[:, :, 0] = A_t[np.arange(len(problem)), s]
        basis = Q[:, :k]
        basis_t = basis.swapaxes(1, 2)
        coefficients = basis @ column
        w = column - basis_t @ coefficients
        correction = basis @ w
        w -= basis_t @ correction
        diagonal = norms(w)
        reasons = []
        for i, (p, index, d) in enumerate(zip(
            problem.tolist(), s.tolist(), diagonal.ravel().tolist(),
        )):
            largest_diagonal[p] = max(largest_diagonal[p], d)
            if index in selected[p]:
                reasons.append((i, STOP_STALLED))
            elif d <= RANK_TOLERANCE * largest_diagonal[p]:
                reasons.append((i, STOP_RANK_DEFICIENT))
        if reasons:
            (A_t, Y, Q, R, qty, problem, correlations, s, w, diagonal,
             coefficients, correction) = _kept(
                stop(reasons, k), A_t, Y, Q, R, qty, problem, correlations,
                s, w, diagonal, coefficients, correction,
            )
            if not len(problem):
                break
        np.divide(w, diagonal, out=Q[:, k:k + 1].swapaxes(1, 2))
        np.add(coefficients, correction, out=R[:, :k, k:k + 1])
        R[:, k:k + 1, k:k + 1] = diagonal
        np.matmul(Q[:, k:k + 1], Y, out=qty[:, k:k + 1])
        residual = Y - Q[:, :k + 1].swapaxes(1, 2) @ qty[:, :k + 1]
    failures = {p: DimensionMismatch("vector contains non-finite entries") for p in
                np.flatnonzero(~(finite & np.isfinite(estimates).all(axis=1))).tolist()}
    return [None if p in failures else trace for p, trace in enumerate(traces)], failures


def run_omps(Y, A, rules):
    """run_omp on each problem of a stack, all in one loop.

    Problem i has measurements ``Y[i]``, matrix ``A[i]`` and stopping rule
    ``rules[i]``; ``A`` is a stack of m x n matrices and ``Y`` holds one
    row per matrix.  Each iteration forms every running problem's A^T r,
    Gram-Schmidt step and residual as one stacked product, and a problem
    leaves the loop as soon as it stops.  Returns one OmpTrace per problem,
    each ``==`` to run_omp's on that problem, and, by position, the error
    run_omp raises on each problem that fails only itself (its trace is
    None): one whose measurements or estimate are not finite.
    """
    A = as_matrix_stack(A)
    Y = np.asarray(Y, dtype=float)
    if Y.shape != A.shape[:2]:
        raise DimensionMismatch(
            f"stack of {A.shape[0]} matrices with {A.shape[1]} rows, "
            f"but measurements of shape {Y.shape}"
        )
    if len(rules) != len(A):
        raise DimensionMismatch(f"{len(rules)} rules for {len(A)} problems")
    return _solve(Y, A, rules, _max_iterations(A, rules, None), None)


def run_omp(y, A, rule, max_iterations=None, tie_break_rng=None):
    """Run orthogonal matching pursuit on measurements ``y``.

    Each iteration selects the column with the largest absolute correlation
    against the current residual and appends it to a QR factorization of the
    selected columns, kept in selection order: classical Gram-Schmidt with
    one re-orthogonalization pass yields the next orthonormal basis vector
    q_k and the next column of R.  The residual r^k is y minus its projection
    onto q_1..q_k, and the single product A^T r^k gives both ||A^T r^k||_inf
    and the next iteration's correlations.  The estimate is solved once, at
    the end, by back-substitution on R.  This is run_omps on a stack of one.

    Rules are evaluated after each residual update; ResidualL2 is also
    evaluated on r^0 = y, so a rule already met at the start runs zero
    iterations.  A residual that is exactly uncorrelated with every column
    (as y = 0 is) also ends the loop: with "rule_met" when the rule holds
    for it with ||A^T r||_inf = 0, and "stalled" otherwise.

    Returns an OmpTrace; raises DimensionMismatch when ``y`` or the
    estimate is not finite.  Rather than raising, the run stops with
    ``stop_reason`` "rank_deficient" when the new column's component
    orthogonal to the selected ones is at most RANK_TOLERANCE times the
    largest R diagonal, and "stalled" when it re-selects a chosen column
    (the residual is then orthogonal to every column up to round-off).
    """
    A = as_matrix(A)
    y = np.asarray(y, dtype=float)
    max_iterations = check_omp_inputs(y, A, rule, max_iterations)
    [trace], failures = _solve(y[None], A[None], [rule], max_iterations, tie_break_rng)
    if failures:
        raise failures[0]
    return trace


def min_magnitude_threshold_l2(K, delta, epsilon):
    """Minimum-magnitude bound 2*eps / (1 - sqrt(K+1)*delta) for l2 noise."""
    if epsilon < 0:
        raise InvalidOrder(f"epsilon must be >= 0, got {epsilon}")
    return 2.0 * epsilon / _sharp_denominator(K, delta)


def _linf_factor(K, delta2, deltaK1, unit_norm_columns):
    if K < 1:
        raise InvalidOrder(f"sparsity K must be >= 1, got {K}")
    if not 0.0 <= deltaK1 < 1.0:
        raise InvalidOrder(f"delta_(K+1) must lie in [0, 1), got {deltaK1}")
    if not 0.0 <= delta2:
        raise InvalidOrder(f"delta_2 must be >= 0, got {delta2}")
    if delta2 > deltaK1:
        raise InvalidDeltaOrder(f"delta_2 {delta2} > delta_(K+1) {deltaK1}")
    if unit_norm_columns:
        return 1.0 + math.sqrt(K) / math.sqrt(1.0 - deltaK1)
    return 1.0 + math.sqrt((1.0 + delta2) * K / (1.0 - deltaK1))


def linf_stopping_threshold(K, delta2, deltaK1, epsilon, unit_norm_columns=False):
    """Stopping threshold (1 + sqrt((1+d2)K/(1-dK1))) * eps for linf noise.

    With ``unit_norm_columns`` the relaxed factor 1 + sqrt(K)/sqrt(1-dK1)
    applies instead.
    """
    return _linf_factor(K, delta2, deltaK1, unit_norm_columns) * epsilon


def min_magnitude_threshold_linf(K, delta2, deltaK1, epsilon, unit_norm_columns=False):
    """Minimum-magnitude bound for linf noise: the l2 bound's leading factor
    times the linf stopping factor."""
    if epsilon < 0:
        raise InvalidOrder(f"epsilon must be >= 0, got {epsilon}")
    factor = _linf_factor(K, delta2, deltaK1, unit_norm_columns)
    return 2.0 / _sharp_denominator(K, deltaK1) * factor * epsilon


def prior_art_ric_bound(K):
    """The best previously published RIC bound, (sqrt(4K+1)-1)/(2K)."""
    return (math.sqrt(4 * K + 1) - 1.0) / (2.0 * K)


def prior_art_thresholds(K, delta, epsilon):
    """Best previously published bounds, for tabular comparison.

    Returns a dict with the RIC bound ``prior_art_ric_bound(K)`` and the
    minimum-magnitude bound (sqrt(1+delta)+1)*eps /
    (1 - delta - sqrt(1-delta)*sqrt(K)*delta).
    """
    if K < 1:
        raise InvalidOrder(f"K must be >= 1, got {K}")
    ric_bound = prior_art_ric_bound(K)
    denominator = 1.0 - delta - math.sqrt(1.0 - delta) * math.sqrt(K) * delta
    if denominator <= 0:
        raise DegenerateDenominator(
            f"prior-art denominator {denominator} <= 0 for K={K}, delta={delta}"
        )
    min_mag = (math.sqrt(1.0 + delta) + 1.0) * epsilon / denominator
    return {"ric_bound": ric_bound, "min_magnitude": min_mag}
