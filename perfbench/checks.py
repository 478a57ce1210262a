"""Output checks that recompute every result without calling omp_sharp.

Each check raises CheckFailed on a wrong output and otherwise returns the
number of work items the output completes, so the benchmark counts only
items whose output was verified.
"""

import csv
import math
from itertools import combinations

import numpy as np

#: Relative slack for quantities the program and the check compute in a
#: different floating-point order (a Gram block against columns, QR against
#: an SVD solve).
REL_TOL = 1e-9

#: Slack on the Lemma 1 inequality, as the paper's experiments state it.
LEMMA1_SLACK = 1e-10

#: Slack on a recomputed restricted isometry constant.
RIC_TOL = 1e-12


class CheckFailed(Exception):
    """A job's output is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- Theorems 1 and 2: minimum-magnitude bounds, recomputed from the paper --


def l2_min_magnitude_bound(K, delta, epsilon):
    """2 eps / (1 - sqrt(K+1) delta_{K+1}) for ||v||_2 <= eps."""
    return 2.0 * epsilon / (1.0 - math.sqrt(K + 1) * delta)


def linf_min_magnitude_bound(K, delta2, delta, epsilon):
    """2 / (1 - sqrt(K+1) delta_{K+1}) * (1 + sqrt((1+delta_2) K / (1-delta_{K+1}))) * eps
    for ||A^T v||_inf <= eps."""
    factor = 1.0 + math.sqrt((1.0 + delta2) * K / (1.0 - delta))
    return 2.0 / (1.0 - math.sqrt(K + 1) * delta) * factor * epsilon


def _index_set(text):
    return {int(i) for i in text.split("|")} if text else set()


def check_sweep_csv(path, experiment, epsilon, expected_rows):
    """Validate one trial CSV of a Theorem1Sweep, Theorem2Sweep or Lemma1Suite."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) == expected_rows,
            f"{experiment}: {len(rows)} rows, expected {expected_rows}")
    for i, row in enumerate(rows):
        where = f"{experiment} row {i}"
        require(row["experiment"] == experiment, f"{where}: experiment {row['experiment']!r}")
        require(row["error"] == "", f"{where}: error {row['error']!r}")
        K = int(row["K"])
        if experiment == "Lemma1Suite":
            lhs, rhs = float(row["lhs_gap"]), float(row["rhs_bound"])
            require(lhs >= rhs - LEMMA1_SLACK, f"{where}: lhs_gap {lhs} < rhs_bound {rhs}")
            continue
        found, true = _index_set(row["support_found"]), _index_set(row["support_true"])
        require(len(true) == K and found == true,
                f"{where}: support_found {sorted(found)} != support_true {sorted(true)}")
        require(int(row["iterations"]) == K, f"{where}: {row['iterations']} iterations, K={K}")
        delta = float(row["delta_exact"])
        require(delta * delta * (K + 1) < 1.0,
                f"{where}: delta_exact {delta} not below 1/sqrt({K + 1})")
        require(float(row["epsilon"]) == epsilon, f"{where}: epsilon {row['epsilon']}")
        if experiment == "Theorem1Sweep":
            bound = l2_min_magnitude_bound(K, delta, epsilon)
        else:
            bound = linf_min_magnitude_bound(K, float(row["delta2_exact"]), delta, epsilon)
        magnitude = float(row["min_magnitude"])
        require(magnitude >= bound, f"{where}: min_magnitude {magnitude} below bound {bound}")
    return len(rows)


# -- OMP traces --


def check_omp_trace(A, y, support, trace):
    """Validate an OMP trace against the drawn 1-based ``support``.

    ``trace`` has the layout of the ``omp run`` trace JSON: ``iterations``
    (each with ``selected_index``, ``correlations``, ``residual_l2``),
    ``final_support`` and ``final_estimate``.  Returns the iteration count.
    """
    iterations = trace["iterations"]
    selected = [int(it["selected_index"]) for it in iterations]
    require(len(iterations) == len(support),
            f"{len(iterations)} iterations for sparsity {len(support)}")
    require(len(set(selected)) == len(selected), f"column selected twice: {selected}")
    found = {int(i) for i in trace["final_support"]}
    require(found == set(selected) == set(support),
            f"support found {sorted(found)} != drawn {sorted(support)}")

    scale = float(np.linalg.norm(y)) * float(np.max(np.linalg.norm(A, axis=0)))
    residuals = [float(np.linalg.norm(y))] + [float(it["residual_l2"]) for it in iterations]
    for k, (before, after) in enumerate(zip(residuals, residuals[1:]), start=1):
        require(after <= before + REL_TOL * residuals[0],
                f"residual grew at iteration {k}: {before} -> {after}")
    for k, it in enumerate(iterations):
        correlations = np.asarray(it["correlations"], dtype=float)
        magnitudes = np.abs(correlations)
        top = float(magnitudes.max())
        require(magnitudes[selected[k] - 1] >= top * (1.0 - REL_TOL),
                f"iteration {k + 1} selected {selected[k]}, not a largest correlation")
        if k:
            # correlations at iteration k are A^T r^(k-1): zero on earlier picks
            earlier = [i - 1 for i in selected[:k]]
            leak = float(np.max(magnitudes[earlier]))
            require(leak <= REL_TOL * scale,
                    f"residual before iteration {k + 1} not orthogonal to the selected "
                    f"columns ({leak:.3e})")
    first = np.abs(np.asarray(iterations[0]["correlations"], dtype=float) - A.T @ y)
    require(float(first.max()) <= REL_TOL * scale, "first correlations differ from A^T y")

    estimate = np.asarray(trace["final_estimate"], dtype=float)
    columns = sorted(i - 1 for i in found)
    off = np.ones(A.shape[1], dtype=bool)
    off[columns] = False
    require(not np.any(estimate[off]), "estimate nonzero off the found support")
    reference = np.linalg.lstsq(A[:, columns], y, rcond=None)[0]
    gap = float(np.max(np.abs(estimate[columns] - reference)))
    require(gap <= REL_TOL * max(1.0, float(np.max(np.abs(reference)))),
            f"estimate differs from lstsq on the found support by {gap:.3e}")
    residual = y - A[:, columns] @ estimate[columns]
    leak = float(np.max(np.abs(A[:, columns].T @ residual)))
    require(leak <= REL_TOL * scale, f"final residual not orthogonal ({leak:.3e})")
    return len(iterations)


# -- restricted isometry constants --


def subset_delta(A, subset):
    """(delta, extremal eigenvalue) of the 1-based column ``subset``."""
    columns = A[:, [i - 1 for i in subset]]
    eigenvalues = np.linalg.eigvalsh(columns.T @ columns)
    low, high = 1.0 - eigenvalues[0], eigenvalues[-1] - 1.0
    return (low, eigenvalues[0]) if low >= high else (high, eigenvalues[-1])


def brute_force_ric(A, order):
    """Plain loop over every subset: (delta, witnesses).

    ``witnesses`` lists, in lexicographic order, every subset whose delta is
    within RIC_TOL of the largest; more than one means a tie that rounding
    decides, so any of them is a correct witness.
    """
    deltas = {subset: subset_delta(A, subset)[0]
              for subset in combinations(range(1, A.shape[1] + 1), order)}
    best = max(deltas.values())
    return best, [subset for subset, delta in deltas.items() if delta >= best - RIC_TOL]


def sampled_ric(A, order, rng, samples):
    """Largest delta over ``samples`` random subsets: a lower bound on the RIC."""
    n = A.shape[1]
    return max(
        subset_delta(A, sorted(int(i) + 1 for i in rng.choice(n, order, replace=False)))[0]
        for _ in range(samples)
    )


class RicReference:
    """What the checks know about one matrix: brute-force constants on the
    lower orders, sampled lower bounds on every order, and closed-form
    constants where the matrix was built to have them."""

    def __init__(self, A, order, rng, samples=200, known=None):
        self.A = A
        self.brute = {k: brute_force_ric(A, k) for k in range(1, min(order, 4))}
        self.sampled = {k: sampled_ric(A, k, rng, samples) for k in range(1, order + 1)}
        self.known = dict(known or {})


def check_ric_doc(reference, doc, order, all_orders):
    """Validate the JSON document of ``ric MATRIX ORDER [--all-orders]``.

    Returns the number of subsets the command covered.
    """
    A = reference.A
    n = A.shape[1]
    reports = doc["reports"] if all_orders else [doc]
    orders = list(range(1, order + 1)) if all_orders else [order]
    require([r["order"] for r in reports] == orders,
            f"orders {[r['order'] for r in reports]}, expected {orders}")
    for report in reports:
        k, delta = report["order"], float(report["delta"])
        witness = tuple(int(i) for i in report["witness_subset"])
        where = f"order {k}"
        require(len(witness) == k and list(witness) == sorted(set(witness))
                and 1 <= witness[0] and witness[-1] <= n,
                f"{where}: malformed witness {witness}")
        recomputed, eigenvalue = subset_delta(A, witness)
        require(abs(recomputed - delta) <= RIC_TOL * max(1.0, abs(delta)),
                f"{where}: witness {witness} gives delta {recomputed}, reported {delta}")
        require(abs(float(report["witness_eigenvalue"]) - eigenvalue)
                <= RIC_TOL * max(1.0, abs(eigenvalue)),
                f"{where}: witness eigenvalue {report['witness_eigenvalue']}, "
                f"recomputed {eigenvalue}")
        require(reference.sampled[k] <= delta + RIC_TOL,
                f"{where}: a sampled subset has delta {reference.sampled[k]} > {delta}")
        for source, table in (("brute force", reference.brute), ("closed form", reference.known)):
            if k in table:
                expected, witnesses = table[k]
                require(abs(expected - delta) <= RIC_TOL * max(1.0, abs(delta))
                        and witness in witnesses,
                        f"{where}: {source} gives {expected} at {witnesses[0]}, "
                        f"reported {delta} at {witness}")
    deltas = [float(r["delta"]) for r in reports]
    for k, (lower, higher) in enumerate(zip(deltas, deltas[1:]), start=1):
        require(higher >= lower - RIC_TOL, f"delta decreases from order {k} to {k + 1}")
    return sum(math.comb(n, k) for k in orders)
