"""One-trial references shared by the test files: the noise samplers and
the selection gap as they ran one trial at a time, written out here so
that the package's stacked forms are checked against code they do not
share."""

import math

import numpy as np

from omp_sharp.errors import DegenerateMatrix
from omp_sharp.instances import NOISE_ATTEMPTS


def reference_l2_noise(m, epsilon, rng):
    """sample_l2_noise as it drew one vector alone."""
    direction = rng.standard_normal(m)
    norm = np.linalg.norm(direction)
    while norm == 0.0:
        direction = rng.standard_normal(m)
        norm = np.linalg.norm(direction)
    radius = epsilon * rng.uniform() ** (1.0 / m)
    return direction * (radius / norm)


def reference_linf_noise(A, epsilon, rng):
    """sample_linf_noise as it drew one vector alone."""
    for _ in range(NOISE_ATTEMPTS):
        v = rng.standard_normal(A.shape[0])
        level = float(np.max(np.abs(A.T @ v)))
        if level > 0.0:
            c = 1.0 - rng.uniform(0.0, 1.0)
            return v * (c * epsilon / level)
    raise DegenerateMatrix(f"A^T v vanished for {NOISE_ATTEMPTS} consecutive draws")


def reference_lemma1_gap(A, x, subset, delta):
    """lemma1_gap as it ran one trial at a time: the part of the signal off
    the subset, projected off the subset's columns by a least-squares solve
    through a Householder QR."""
    remaining = sorted(x.support - set(subset))
    off_support = sorted(set(range(1, A.shape[1] + 1)) - x.support)
    A_S = A[:, [i - 1 for i in sorted(subset)]]
    A_remaining = A[:, [i - 1 for i in remaining]]
    x_remaining = np.array([x.values[i - 1] for i in remaining])
    direction = A_remaining @ x_remaining
    if subset:
        Q, R = np.linalg.qr(A_S)
        direction = direction - A_S @ np.linalg.solve(R, Q.T @ direction)
    lhs_on = float(np.max(np.abs(A_remaining.T @ direction)))
    lhs_off = float(np.max(np.abs(A[:, [i - 1 for i in off_support]].T @ direction)))
    r = len(remaining)
    rhs = (1.0 - math.sqrt(r + 1) * delta) * float(np.linalg.norm(x_remaining)) / math.sqrt(r)
    return {"lhs_gap": lhs_on - lhs_off, "rhs_bound": rhs}
