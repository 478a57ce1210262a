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
    OutOfSharpRegion,
)
from .linalg import RANK_TOLERANCE, as_matrix, as_vector
from .rip import in_sharp_region

#: Relative gap below which two correlation magnitudes count as tied.
TIE_TOLERANCE = 1e-12

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
        support = frozenset(int(i) + 1 for i in np.nonzero(values)[0])
        object.__setattr__(self, "support", support)
        if self.sparsity is not None and len(support) > self.sparsity:
            raise InvalidOrder(
                f"support size {len(support)} exceeds declared sparsity {self.sparsity}"
            )

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
                    "correlations": [float(c) for c in it.correlations],
                    "residual_l2": it.residual_l2,
                    "correlation_linf": it.correlation_linf,
                }
                for it in self.iterations
            ],
            "final_support": sorted(self.final_support),
            "final_estimate": [float(v) for v in self.final_estimate.values],
            "stop_reason": self.stop_reason,
        }


def _select(correlations, rng):
    """Index (1-based) of the largest |correlation|; ties within TIE_TOLERANCE
    relative go to the smallest index, or are drawn at random when an ``rng``
    is supplied."""
    magnitudes = np.abs(correlations)
    top = float(magnitudes.max())
    tied = np.nonzero(top - magnitudes <= TIE_TOLERANCE * top)[0]
    if rng is not None and len(tied) > 1:
        return int(rng.choice(tied)) + 1
    return int(tied[0]) + 1


def _back_substitute(R, b):
    """Solve R x = b for a nonsingular upper-triangular ``R``."""
    x = np.empty(len(b))
    for i in range(len(b) - 1, -1, -1):
        x[i] = (b[i] - R[i, i + 1:] @ x[i + 1:]) / R[i, i]
    return x


def run_omp(y, A, rule, max_iterations=None, tie_break_rng=None):
    """Run orthogonal matching pursuit on measurements ``y``.

    Each iteration selects the column with the largest absolute correlation
    against the current residual and appends it to a QR factorization of the
    selected columns, kept in selection order: classical Gram-Schmidt with
    one re-orthogonalization pass yields the next orthonormal basis vector
    q_k and the next column of R.  The residual r^k is y minus its projection
    onto q_1..q_k, and the single product A^T r^k gives both ||A^T r^k||_inf
    and the next iteration's correlations.  The estimate is solved once, at
    the end, by back-substitution on R.

    Rules are evaluated after each residual update; ResidualL2 is also
    evaluated on r^0 = y, so a rule already met at the start runs zero
    iterations.  A residual that is exactly uncorrelated with every column
    also stops the loop (covering y = 0).

    Returns an OmpTrace.  Rather than raising, the run stops with
    ``stop_reason`` "rank_deficient" when the new column's component
    orthogonal to the selected ones is at most RANK_TOLERANCE times the
    largest R diagonal, and "stalled" when it re-selects a chosen column
    (the residual is then orthogonal to every column up to round-off).
    """
    A = as_matrix(A)
    y = as_vector(y)
    m, n = A.shape
    if m != y.shape[0]:
        raise DimensionMismatch(f"matrix has {m} rows but y has length {y.shape[0]}")
    cap = min(m, n)
    if max_iterations is None:
        max_iterations = cap
    if not (1 <= max_iterations <= cap):
        raise InvalidOrder(f"max_iterations {max_iterations} outside [1, {cap}]")
    if isinstance(rule, FixedIterations) and rule.count > max_iterations:
        raise InvalidOrder(
            f"FixedIterations({rule.count}) exceeds max_iterations {max_iterations}"
        )

    # A[:, selected] = Q[:k].T @ R[:k, :k]: the rows of Q are q_1..q_k.  The
    # buffers are left untouched when allocated, so their pages take memory
    # only as the run fills them.
    Q = np.empty((max_iterations, m))
    R = np.zeros((max_iterations, max_iterations))
    qty = np.empty(max_iterations)  # Q[:k] @ y
    largest_diagonal = 0.0
    iterations = []
    selected = []

    def finish(reason):
        k = len(selected)
        values = np.zeros(n)
        values[[i - 1 for i in selected]] = _back_substitute(R[:k, :k], qty[:k])
        return OmpTrace(
            iterations=tuple(iterations),
            final_support=frozenset(selected),
            final_estimate=SparseSignal(values),
            stop_reason=reason,
        )

    # only ||r^0|| is known before the first selection; no correlation rule
    # fires on r^0
    if rule.met(0, float(np.linalg.norm(y)), math.inf):
        return finish(STOP_RULE_MET)

    correlations = A.T @ y
    correlation_linf = float(np.max(np.abs(correlations)))
    for k in range(max_iterations):
        if correlation_linf == 0.0:
            return finish(STOP_RULE_MET)
        s = _select(correlations, tie_break_rng)
        if s in selected:
            return finish(STOP_STALLED)
        column = A[:, s - 1]
        basis = Q[:k]
        coefficients = basis @ column
        w = column - basis.T @ coefficients
        correction = basis @ w
        w -= basis.T @ correction
        diagonal = float(np.linalg.norm(w))
        largest_diagonal = max(largest_diagonal, diagonal)
        if diagonal <= RANK_TOLERANCE * largest_diagonal:
            return finish(STOP_RANK_DEFICIENT)
        Q[k] = w / diagonal
        R[:k, k] = coefficients + correction
        R[k, k] = diagonal
        qty[k] = Q[k] @ y
        selected.append(s)

        residual = y - Q[:k + 1].T @ qty[:k + 1]
        residual_l2 = float(np.linalg.norm(residual))
        next_correlations = A.T @ residual
        correlation_linf = float(np.max(np.abs(next_correlations)))
        iterations.append(
            OmpIteration(
                selected_index=s,
                correlations=correlations,
                residual_l2=residual_l2,
                correlation_linf=correlation_linf,
            )
        )
        if rule.met(k + 1, residual_l2, correlation_linf):
            return finish(STOP_RULE_MET)
        correlations = next_correlations

    return finish(STOP_MAX_ITERATIONS)


def min_magnitude_threshold_l2(K, delta, epsilon):
    """Minimum-magnitude bound 2*eps / (1 - sqrt(K+1)*delta) for l2 noise."""
    if epsilon < 0:
        raise InvalidOrder(f"epsilon must be >= 0, got {epsilon}")
    if not in_sharp_region(K, delta):
        raise OutOfSharpRegion(f"delta {delta} not < 1/sqrt({K + 1})")
    return 2.0 * epsilon / (1.0 - math.sqrt(K + 1) * delta)


def _linf_factor(K, delta2, deltaK1, unit_norm_columns):
    if not 0.0 <= deltaK1 < 1.0:
        raise InvalidOrder(f"delta_(K+1) must lie in [0, 1), got {deltaK1}")
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
    if not in_sharp_region(K, deltaK1):
        raise OutOfSharpRegion(f"delta {deltaK1} not < 1/sqrt({K + 1})")
    return 2.0 / (1.0 - math.sqrt(K + 1) * deltaK1) * factor * epsilon


def prior_art_thresholds(K, delta, epsilon):
    """Best previously published bounds, for tabular comparison.

    Returns a dict with the RIC bound (sqrt(4K+1)-1)/(2K) and the
    minimum-magnitude bound (sqrt(1+delta)+1)*eps /
    (1 - delta - sqrt(1-delta)*sqrt(K)*delta).
    """
    if K < 1:
        raise InvalidOrder(f"K must be >= 1, got {K}")
    ric_bound = (math.sqrt(4 * K + 1) - 1.0) / (2.0 * K)
    denominator = 1.0 - delta - math.sqrt(1.0 - delta) * math.sqrt(K) * delta
    if denominator <= 0:
        raise DegenerateDenominator(
            f"prior-art denominator {denominator} <= 0 for K={K}, delta={delta}"
        )
    min_mag = (math.sqrt(1.0 + delta) + 1.0) * epsilon / denominator
    return {"ric_bound": ric_bound, "min_magnitude": min_mag}
