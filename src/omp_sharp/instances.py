"""Recovery-problem builders.

Worst-case counterexample constructions for both noise models, the three
fixed 2x2 demonstration instances, bounded-noise samplers, random matrices
whose isometry constants stay below a cap, and the selection-gap evaluator
that backs the per-iteration correctness bound.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMatrix,
    DimensionMismatch,
    GammaOutOfRange,
    NotProperSubset,
    ParameterOutOfRange,
    check_delta,
    check_epsilon,
    check_magnitude,
    check_order,
)
from .linalg import as_matrix, as_matrix_stack, as_vector, least_squares_stack, norms
from .omp import SparseSignal
from .rip import _sharp_denominator

NOISE_L2 = "l2_bounded"
NOISE_LINF = "linf_bounded"

#: Absolute slack allowed when checking a noise vector against its bound.
BOUND_SLACK = 1e-12

#: Draws linf_noises makes for a trial before giving up on a matrix whose
#: A^T v keeps vanishing.
NOISE_ATTEMPTS = 100


@dataclass(frozen=True)
class Instance:
    """One recovery problem: measurements y = A x + v with a noise bound.

    ``noise_model`` is NOISE_L2 (||v||_2 <= epsilon) or NOISE_LINF
    (||A^T v||_inf <= epsilon); the bound is validated on construction.
    """

    A: np.ndarray
    x: SparseSignal
    v: np.ndarray
    epsilon: float
    noise_model: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        A = as_matrix(self.A)
        v = as_vector(self.v)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "v", v)
        if A.shape[1] != self.x.n or A.shape[0] != v.shape[0]:
            raise DimensionMismatch(
                f"matrix {A.shape} incompatible with x of length {self.x.n} "
                f"and v of length {v.shape[0]}"
            )
        check_epsilon(self.epsilon)
        level = self.noise_level()
        if level > self.epsilon + BOUND_SLACK:
            raise ParameterOutOfRange(
                f"noise bound violated: {level} > epsilon {self.epsilon}"
            )

    def noise_level(self):
        """The bounded quantity of the noise model: ||v||_2 or ||A^T v||_inf."""
        if self.noise_model == NOISE_L2:
            return float(np.linalg.norm(self.v))
        if self.noise_model == NOISE_LINF:
            return float(np.max(np.abs(self.A.T @ self.v)))
        raise ParameterOutOfRange(f"unknown noise model {self.noise_model!r}")

    def measurements(self):
        return self.A @ self.x.values + self.v


def orthonormal_complement_of_ones(K):
    """K x (K-1) matrix with orthonormal columns, each orthogonal to the
    all-ones vector.  Deterministic given K; empty for K = 1."""
    ones = np.full((K, 1), 1.0 / math.sqrt(K))
    Q = np.linalg.qr(ones, mode="complete")[0]
    # qr may flip the sign of the leading column; the complement is unaffected
    return Q[:, 1:]


def _beta(K):
    return (math.sqrt(K + 1) - 1.0) / math.sqrt(K)


def counterexample_operator(K, delta):
    """The (K+1)x(K+1) pair (A, U) with A = D U used by both worst-case
    constructions.

    U stacks the orthonormal complement of the ones direction with two
    explicit rows mixing the ones direction and the last coordinate; D scales
    row K (1-based) by sqrt(1-delta) and every other row by sqrt(1+delta),
    so the Gram spectrum is exactly {1-delta, 1+delta}.  delta must lie in
    (0, 1/sqrt(K+1)), where the gamma bounds are defined: the check is
    check_delta's, then _sharp_denominator's.
    """
    _sharp_denominator(K, check_delta(delta, positive=True))
    beta = _beta(K)
    s = math.sqrt(beta * beta + 1.0)
    xi = orthonormal_complement_of_ones(K)
    U = np.zeros((K + 1, K + 1))
    U[: K - 1, :K] = xi.T
    U[K - 1, :K] = 1.0 / (math.sqrt(K) * s)
    U[K - 1, K] = beta / s
    U[K, :K] = beta / (math.sqrt(K) * s)
    U[K, K] = -1.0 / s
    d = np.full(K + 1, math.sqrt(1.0 + delta))
    d[K - 1] = math.sqrt(1.0 - delta)
    return d[:, None] * U, U, d


def l2_gamma_bound(K, delta, epsilon):
    """Open upper bound on the signal magnitude for the l2-noise construction."""
    denominator = _sharp_denominator(K, delta)
    return math.sqrt(1.0 - delta) * check_epsilon(epsilon) / denominator


def linf_gamma_bound(K, delta, epsilon):
    """Open upper bound on the signal magnitude for the linf-noise construction."""
    return 2.0 * check_epsilon(epsilon) / _sharp_denominator(K, delta)


def _check_gamma(gamma, bound):
    if not 0.0 < gamma < bound:
        raise GammaOutOfRange(f"gamma {gamma} outside (0, {bound})")


def build_counterexample_l2(K, delta, epsilon, gamma):
    """Instance on which OMP mispicks column K+1 at iteration 1 under l2 noise.

    The signal puts magnitude gamma on the first K coordinates; the noise is
    built so A^T v vanishes on the support and is -sqrt(1-delta)*epsilon on
    the off-support coordinate.
    """
    A, U, d = counterexample_operator(K, delta)
    _check_gamma(gamma, l2_gamma_bound(K, delta, epsilon))
    x = SparseSignal(np.concatenate([np.full(K, gamma), [0.0]]), sparsity=K)
    target = np.zeros(K + 1)
    target[K] = -math.sqrt(1.0 - delta) * epsilon
    v = (U @ target) / d
    return Instance(
        A=A,
        x=x,
        v=v,
        epsilon=epsilon,
        noise_model=NOISE_L2,
        metadata={"K": K, "delta": delta, "gamma": gamma},
    )


def build_counterexample_linf(K, delta, epsilon, gamma):
    """Same operator and signal as the l2 construction; the noise is built so
    A^T v = -epsilon on every coordinate."""
    A, U, d = counterexample_operator(K, delta)
    _check_gamma(gamma, linf_gamma_bound(K, delta, epsilon))
    x = SparseSignal(np.concatenate([np.full(K, gamma), [0.0]]), sparsity=K)
    v = -epsilon * (U @ np.ones(K + 1)) / d
    return Instance(
        A=A,
        x=x,
        v=v,
        epsilon=epsilon,
        noise_model=NOISE_LINF,
        metadata={"K": K, "delta": delta, "gamma": gamma},
    )


#: The worst-case constructions by noise kind: (builder, open upper bound
#: on the signal magnitude gamma).
COUNTEREXAMPLES = {
    "l2": (build_counterexample_l2, l2_gamma_bound),
    "linf": (build_counterexample_linf, linf_gamma_bound),
}


def counterexample_correlations(noise_model, K, delta, epsilon, gamma):
    """Closed forms for the first-iteration correlation magnitudes:
    (max over the support, max off the support)."""
    check_delta(delta)
    check_epsilon(epsilon)
    root = math.sqrt(check_order(K) + 1)
    if noise_model == NOISE_L2:
        return (
            (1.0 - delta / root) * gamma,
            K * delta * gamma / root + math.sqrt(1.0 - delta) * epsilon,
        )
    if noise_model == NOISE_LINF:
        return (
            (1.0 - delta / root) * gamma - epsilon,
            K * delta * gamma / root + epsilon,
        )
    raise ParameterOutOfRange(f"unknown noise model {noise_model!r}")


def build_example1(delta, a):
    """2x2 unit-norm-column instance on which the bare linf stopping rule
    keeps running and picks up the off-support column."""
    check_delta(delta, positive=True)
    check_magnitude(a, (1.0 + delta) / (1.0 - delta))
    root = math.sqrt(1.0 - delta * delta)
    A = np.array([[root, 0.0], [delta, 1.0]])
    return Instance(
        A=A,
        x=SparseSignal(np.array([a, 0.0]), sparsity=1),
        v=np.array([-2.0 * delta / root, 1.0]),
        epsilon=1.0,
        noise_model=NOISE_LINF,
        metadata={"K": 1, "delta": delta, "a": a},
    )


def _scaled_identity_example(delta, a, a_bound, epsilon, noise_model):
    check_magnitude(a, 0.0, a_bound)
    return Instance(
        A=delta * np.eye(2),
        x=SparseSignal(np.array([a, 0.0]), sparsity=1),
        v=np.array([1.0, 1.0]),
        epsilon=epsilon,
        noise_model=noise_model,
        metadata={"K": 1, "delta": delta, "a": a},
    )


#: Examples 2 and 3 take delta in (0, EXAMPLE_DELTA_BOUND).
EXAMPLE_DELTA_BOUND = 1.0 / math.sqrt(2.0)


def example2_a_bound(delta):
    check_delta(delta, positive=True, below=EXAMPLE_DELTA_BOUND)
    return math.sqrt(2.0 * (1.0 - delta)) / (1.0 - math.sqrt(2.0) * delta)


def example3_a_bound(delta):
    check_delta(delta, positive=True, below=EXAMPLE_DELTA_BOUND)
    return 2.0 * math.sqrt(2.0) * delta / (1.0 - math.sqrt(2.0) * delta)


def build_example2(delta, a):
    """Scaled-identity instance recovered in one iteration under the l2 rule
    even though the worst-case magnitude bound is violated."""
    return _scaled_identity_example(
        delta, a, example2_a_bound(delta), math.sqrt(2.0), NOISE_L2
    )


def build_example3(delta, a):
    """Scaled-identity instance recovered in one iteration under the
    corrected linf rule even though the worst-case magnitude bound is
    violated."""
    return _scaled_identity_example(
        delta, a, example3_a_bound(delta), math.sqrt(2.0) * delta, NOISE_LINF
    )


#: The 2x2 example instances by name: (builder, default signal magnitude as
#: a function of delta, which it checks first).  Example 1's default is
#: 1.5 (1+delta)/(1-delta); Examples 2 and 3 take 0.9 of their open upper bounds.
EXAMPLES = {
    "example1": (build_example1, lambda d: 1.5 * (1.0 + d) / (1.0 - check_delta(d, positive=True))),
    "example2": (build_example2, lambda delta: 0.9 * example2_a_bound(delta)),
    "example3": (build_example3, lambda delta: 0.9 * example3_a_bound(delta)),
}


def lemma1_gaps(A, signals, subsets, deltas):
    """Selection-gap bound for each matrix of the stack ``A`` in one
    partially-completed recovery state: its signal x, its subset and its
    delta.

    Each subset (1-based) must be a proper subset of the support of its x,
    and each delta is the RIC of its matrix of order |support|+1, such as
    exact_rics gives.  A trial's gap is lhs_gap, the difference of the max
    absolute correlations of on-support and off-support columns against
    the residual direction projected off the columns of its subset, and
    rhs_bound, the closed-form lower bound.  Trials whose subsets and
    supports have the same sizes share each step, as one
    least_squares_stack call or stacked product that is bit-identical to
    its one-trial form.  Returns each trial's gap, and the RankDeficient of
    each trial whose subset's columns are numerically dependent, by
    position (its gap is None).  Raises DimensionMismatch on a non-finite
    stack or a signal not as wide as A, NotProperSubset, and the
    RankDeficient of a subset larger than A is tall."""
    A = as_matrix_stack(A)
    subsets = [frozenset(int(i) for i in subset) for subset in subsets]
    for x, subset in zip(signals, subsets):
        if x.n != A.shape[2]:
            raise DimensionMismatch(f"signal of length {x.n} for {A.shape[2]}-column matrices")
        if not subset < x.support:
            raise NotProperSubset(f"{sorted(subset)} is not a proper subset of {sorted(x.support)}")
    gaps, failures, groups = [None] * len(A), {}, {}
    for t, (x, subset) in enumerate(zip(signals, subsets)):
        groups.setdefault((len(subset), len(x.support)), []).append(t)
    for (s, size), group in groups.items():
        # each trial's subset, remaining and off-support columns, gathered
        # column-major as A[:, columns] is: BLAS sums a product of a
        # row-major gather in another order
        columns = np.array([
            sorted(i - 1 for i in subsets[t])
            + sorted(i - 1 for i in signals[t].support.difference(subsets[t]))
            + [j for j in range(A.shape[2]) if j + 1 not in signals[t].support]
            for t in group
        ])
        A_S, A_r, A_off = (
            A[np.array(group)[:, None, None], np.arange(A.shape[1]), c[:, :, None]].swapaxes(1, 2)
            for c in np.split(columns, [s, size], axis=1)
        )
        x_r = np.array([signals[t].values for t in group])[
            np.arange(len(group))[:, None], columns[:, s:size], None]
        direction = A_r @ x_r
        solutions, singular = least_squares_stack(A_S, direction)
        direction = direction - A_S @ solutions
        on, off = (np.abs(B.swapaxes(1, 2) @ direction).max(axis=(1, 2)) for B in (A_r, A_off))
        r = size - s
        rhs = ((1.0 - math.sqrt(r + 1) * np.array([deltas[t] for t in group]))
               * norms(x_r)[:, 0, 0] / math.sqrt(r))
        failures.update((group[i], exc) for i, exc in singular.items())
        for t, gap, bound in zip(group, (on - off).tolist(), rhs.tolist()):
            gaps[t] = None if t in failures else {"lhs_gap": gap, "rhs_bound": bound}
    return gaps, failures


def l2_noises(rngs, m, epsilon):
    """A noise vector uniform on the epsilon-ball, ||v||_2 <= epsilon, for
    each generator of ``rngs``: the noise vectors of length m as rows."""
    check_epsilon(epsilon)
    if not m >= 1:
        raise ParameterOutOfRange(f"noise length must be >= 1, got {m}")
    V, level = _directions(rngs, m, lambda V, trials: norms(V), math.inf)
    scales = [epsilon * rng.uniform() ** (1.0 / m) / lv for rng, lv in zip(rngs, level)]
    return V[:, :, 0] * np.array(scales)[:, None]


def linf_noises(rngs, A, epsilon):
    """A noise vector v with ||A^T v||_inf <= epsilon, the level drawn
    uniformly, for each matrix of the stack ``A`` and its generator: the
    noise vectors as rows, and a DegenerateMatrix, by position, for each
    trial whose A^T v vanished for NOISE_ATTEMPTS consecutive draws (its
    row is zero)."""
    check_epsilon(epsilon)
    A = as_matrix_stack(A)
    V, level = _directions(
        rngs, A.shape[1],
        lambda V, trials: np.abs(A[trials].swapaxes(1, 2) @ V).max(1, keepdims=True),
        NOISE_ATTEMPTS,
    )
    scales, failures = np.zeros(len(rngs)), {}
    for t, (rng, lv) in enumerate(zip(rngs, level)):
        if lv == 0.0:
            failures[t] = DegenerateMatrix(f"A^T v vanished for {NOISE_ATTEMPTS} consecutive draws")
        else:
            scales[t] = (1.0 - rng.uniform(0.0, 1.0)) * epsilon / lv  # c on (0, 1]
    return V[:, :, 0] * scales[:, None], failures


def _directions(rngs, m, levels, attempts):
    """Each generator's noise direction, a stack of m x 1 columns, and its
    level, drawn as for its trial alone: the direction, drawn again alone
    while its level is zero, up to ``attempts`` draws in all.
    ``levels(V, trials)`` gives the levels of the directions ``V`` of the
    trials ``trials`` (a slice), 1 x 1 each; the first levels are one
    stacked call.  A direction whose level stays zero keeps level 0."""
    V = np.empty((len(rngs), m, 1))
    for rng, v in zip(rngs, V):
        rng.standard_normal(out=v[:, 0])
    level = levels(V, slice(None))[:, 0, 0].tolist()
    for t, rng in enumerate(rngs):
        draws = 1
        while level[t] == 0.0 and draws < attempts:
            rng.standard_normal(out=V[t, :, 0])
            level[t] = float(levels(V[t : t + 1], slice(t, t + 1))[0, 0, 0])
            draws += 1
    return V, level


def random_matrices_with_ric(m, n, delta_cap, rngs):
    """A random m x n matrix (1 <= n <= m) whose RIC of every order is below
    ``delta_cap`` for each generator of ``rngs``, stacked on a leading axis.

    Each is an orthonormal-column embedding of an n x n factor whose squared
    singular values are drawn from [1 - delta_cap, 1 + delta_cap] with both
    endpoints attained, so the top-order RIC equals delta_cap exactly and
    lower orders fall strictly inside (0, delta_cap].  Each generator draws,
    in order, the squared singular values, two n x n Gaussian factors and
    the m x n Gaussian embedding.  The QR factorizations and products then
    run once over the whole stack, and each matrix equals the one a stack
    of one builds.
    """
    if n < 1:
        raise ParameterOutOfRange(f"need n >= 1, got {m}x{n}")
    if n > m:
        raise DimensionMismatch(f"need n <= m, got {m}x{n}")
    check_delta(delta_cap, "delta_cap", positive=True)
    count = len(rngs)
    squared = np.empty((count, n))
    factors = np.empty((2, count, n, n))
    embeddings = np.empty((count, m, n))
    for t, rng in enumerate(rngs):
        squared[t] = rng.uniform(1.0 - delta_cap, 1.0 + delta_cap, size=n)
        rng.standard_normal(out=factors[0, t])
        rng.standard_normal(out=factors[1, t])
        rng.standard_normal(out=embeddings[t])
    squared[:, 0] = 1.0 - delta_cap
    if n > 1:
        squared[:, -1] = 1.0 + delta_cap
    W1, W2 = np.linalg.qr(factors[0])[0], np.linalg.qr(factors[1])[0]
    B = (W1 * np.sqrt(squared)[:, None, :]) @ np.swapaxes(W2, 1, 2)
    Q = np.linalg.qr(embeddings)[0]
    return Q @ B
