"""The benchmark's four workloads.

Each workload makes its inputs from the seed when it is built, hands out one
round of jobs at a time (the same operations every round), and checks every
job's output with the independent checks in ``checks``.  Jobs last tens of
milliseconds, so that a run holds hundreds of them.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from omp_sharp import cli, omp

# Program functions are looked up on their modules at call time (cli.main,
# omp.run_omp), so the tracer's wrappers apply in traced rounds.


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], int]  # raises checks.CheckFailed; returns items done


class CliFailed(Exception):
    """An in-process CLI call exited with a nonzero status."""


def run_cli(argv, output):
    """Call ``omp-sharp ARGV`` in this process; its stdout is discarded.

    ``output``, the file the command writes, is removed first, so a check
    never reads an earlier round's file.
    """
    output.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    if code not in (0, None):
        raise CliFailed(f"omp-sharp {argv[0]} exited with status {code}")


def gaussian_matrix(rng, m, n):
    A = rng.standard_normal((m, n))
    return A / np.linalg.norm(A, axis=0)


def orthogonal_matrix(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def sparse_problem(rng, A, K):
    """Noiseless y = A x for a K-sparse x with random signs and magnitudes
    log-uniform on [1, 16].

    The spread keeps noiseless recovery reliable at 1000x4000 up to K = 150;
    with magnitudes uniform on [1, 2] OMP already missed the support on some
    draws at K = 90.
    """
    n = A.shape[1]
    columns = rng.choice(n, size=K, replace=False)
    x = np.zeros(n)
    x[columns] = 2.0 ** rng.uniform(0.0, 4.0, K) * rng.choice([-1.0, 1.0], K)
    return A @ x, {int(i) + 1 for i in columns}


def write_matrix(path, A):
    """Matrix text format of omp_sharp: comma-separated, 17 significant digits."""
    np.savetxt(path, np.atleast_2d(A), fmt="%.17g", delimiter=",")


def trace_fields(trace):
    """An OmpTrace read attribute by attribute into the trace JSON layout."""
    return {
        "iterations": [
            {"selected_index": it.selected_index, "correlations": it.correlations,
             "residual_l2": it.residual_l2}
            for it in trace.iterations
        ],
        "final_support": sorted(trace.final_support),
        "final_estimate": trace.final_estimate.values,
    }


class Workload:
    """Inputs made from a seed and the jobs of a round, the same every round."""

    name = None

    def jobs(self):
        raise NotImplementedError


class SweepAcceptance(Workload):
    """The grid of the acceptance sweep configs through ``omp-sharp
    experiment``, one call per cell.

    A round covers Theorem1Sweep and Theorem2Sweep over K in 1..3 and delta
    fractions 0.5 and 0.855 (epsilon 0.5), ``trials`` trials a cell, and
    Lemma1Suite (10x7) over K in 2 and 3, ``lemma_trials`` trials a cell.
    Each cell is its own job, so that jobs are short and a run holds
    hundreds of them.  Cell c of seed s has config seed base + 1000 s + c,
    with base 1234 for the sweeps and 77 for Lemma1Suite, the acceptance
    seeds.  Every round runs the same cells on the same seeds, and each must
    write the same CSV bytes as in the first round.
    """

    name = "sweep_acceptance"
    EPSILON = 0.5
    K_VALUES = (1, 2, 3)
    DELTA_FRACTIONS = (0.5, 0.855)
    LEMMA_K_VALUES = (2, 3)

    def __init__(self, seed, workdir, trials=28, lemma_trials=42):
        self.seed, self.workdir = seed, workdir
        self.trials, self.lemma_trials = trials, lemma_trials
        self.first_round = {}

    def _cells(self):
        """(kind, experiment, config, rows) of every cell of a round."""
        def seed(base, cell):
            return base + 1000 * self.seed + cell

        cells = []
        for experiment in ("Theorem1Sweep", "Theorem2Sweep"):
            for c, (K, fraction) in enumerate(
                    (K, f) for K in self.K_VALUES for f in self.DELTA_FRACTIONS):
                config = {"seed": seed(1234, c), "k_values": [K], "delta_fractions": [fraction],
                          "epsilons": [self.EPSILON], "trials": self.trials}
                cells.append((f"{experiment} K={K} f={fraction}", experiment, config,
                              self.trials))
        for c, K in enumerate(self.LEMMA_K_VALUES):
            config = {"seed": seed(77, c), "k_values": [K], "trials": self.lemma_trials,
                      "m": 10, "n": 7}
            cells.append((f"Lemma1Suite K={K}", "Lemma1Suite", config, self.lemma_trials))
        return cells

    def _job(self, kind, experiment, config, rows):
        stem = kind.replace(" ", "_")
        config_path = self.workdir / f"{stem}.json"
        config_path.write_text(json.dumps({"experiment": experiment, **config}))
        csv_path = self.workdir / f"{stem}.csv"
        argv = ["experiment", str(config_path), "--csv", str(csv_path),
                "--summary", str(self.workdir / f"{stem}-summary.json")]

        def check(_):
            items = checks.check_sweep_csv(csv_path, experiment, self.EPSILON, rows)
            first = self.first_round.setdefault(kind, csv_path.read_bytes())
            checks.require(csv_path.read_bytes() == first,
                           f"{kind}: CSV bytes differ between two runs of one seed")
            return items

        return Job(kind, lambda: run_cli(argv, csv_path), check)

    def jobs(self):
        return [self._job(*cell) for cell in self._cells()]


class OmpLarge(Workload):
    """``run_omp`` called directly on 500x2000 Gaussian matrices, noiseless.

    At K = 30..60 the least-squares re-solve takes the same share of
    ``run_omp`` (20-31%) as at 1000x4000 and K = 60..120, in a fifth of the
    time, so that a run holds hundreds of jobs.
    """

    name = "omp_large"

    def __init__(self, seed, workdir, m=500, n=2000, sparsities=(30, 45, 60)):
        rng = np.random.default_rng([seed, 1])
        self.problems = []
        for index, K in enumerate(sparsities):
            A = gaussian_matrix(rng, m, n)
            y, support = sparse_problem(rng, A, K)
            # both rules stop after exactly K iterations on an exact recovery
            rule = (omp.FixedIterations(K) if index % 2
                    else omp.ResidualL2(1e-6 * float(np.linalg.norm(y))))
            self.problems.append((A, y, support, rule))

    def jobs(self):
        def job(A, y, support, rule):
            return Job(f"K={len(support)}", lambda: omp.run_omp(y, A, rule),
                       lambda trace: checks.check_omp_trace(A, y, support, trace_fields(trace)))

        return [job(*problem) for problem in self.problems]


class RicEnum(Workload):
    """``omp-sharp ric`` on 16-column matrix files, alone and with --all-orders.

    Two Gaussian matrices (16 and 32 rows), on which pruning by interlacing
    bounds can cut little, and one structured matrix: a block of ``order``
    columns with Gram spectrum linspace(0.3, 1.45, order) in the orthogonal
    complement of ``n - order`` orthonormal columns.  Its order-``order``
    constant is 0.7, attained only on the block (columns 1..order), which
    comes first, so a branch-and-bound finds it at once and prunes heavily.
    """

    name = "ric_enum"

    def __init__(self, seed, workdir, n=16, order=6, samples=200):
        rng = np.random.default_rng([seed, 2])
        self.order = order
        spectrum = np.linspace(0.3, 1.45, order)
        Q = orthogonal_matrix(rng, n)
        V = orthogonal_matrix(rng, order)
        block = Q[:, n - order:] @ (np.sqrt(spectrum)[:, None] * V.T)
        known = {order: (max(1.0 - spectrum[0], spectrum[-1] - 1.0),
                         [tuple(range(1, order + 1))])}
        # entries N(0, 1/rows), not unit columns, so order 1 has no ties
        matrices = {
            "gauss_square": (rng.standard_normal((n, n)) / math.sqrt(n), {}),
            "gauss_tall": (rng.standard_normal((2 * n, n)) / math.sqrt(2 * n), {}),
            "structured": (np.hstack([block, Q[:, : n - order]]), known),
        }
        self.inputs = {}
        for label, (A, closed_form) in matrices.items():
            path = workdir / f"{label}.txt"
            write_matrix(path, A)
            reference = checks.RicReference(A, order, rng, samples, closed_form)
            self.inputs[label] = (path, reference)

    def jobs(self):
        def job(label, all_orders):
            path, reference = self.inputs[label]
            out = path.with_suffix(".all.json" if all_orders else ".json")
            argv = ["ric", str(path), str(self.order), "-o", str(out)]
            if all_orders:
                argv.insert(3, "--all-orders")

            def check(_):
                doc = json.loads(out.read_text())
                return checks.check_ric_doc(reference, doc, self.order, all_orders)

            return Job(f"{label}{' all' if all_orders else ''}", lambda: run_cli(argv, out),
                       check)

        return [job("gauss_square", False), job("gauss_square", True), job("gauss_tall", False),
                job("structured", False), job("structured", True)]


class CliOmpRun(Workload):
    """``omp-sharp omp run`` on one matrix text file and three measurement
    files, the trace written to a file.

    Jobs are short (about 40 ms) so that a run holds hundreds of them: the
    fastest of many short jobs repeats from run to run on a shared machine,
    where the fastest of a few one-second jobs spread by a quarter.  Parsing
    still does most of the work at this size, since it grows with m*n.
    """

    name = "cli_omp_run"

    def __init__(self, seed, workdir, m=150, n=500, sparsities=(5, 10, 15)):
        rng = np.random.default_rng([seed, 3])
        self.A = gaussian_matrix(rng, m, n)
        self.matrix_path = workdir / "A.txt"
        write_matrix(self.matrix_path, self.A)
        self.problems = []
        for index, K in enumerate(sparsities):
            y, support = sparse_problem(rng, self.A, K)
            y_path = workdir / f"y{K}.txt"
            write_matrix(y_path, y[:, None])
            rule = f"fixed:{K}" if index % 2 else f"l2:{1e-6 * float(np.linalg.norm(y))!r}"
            self.problems.append((y_path, y, support, rule, workdir / f"trace{K}.json"))

    def jobs(self):
        def job(y_path, y, support, rule, out):
            argv = ["omp", "run", str(self.matrix_path), str(y_path), rule, "-o", str(out)]

            def check(_):
                checks.check_omp_trace(self.A, y, support, json.loads(out.read_text()))
                return self.A.size

            return Job(f"K={len(support)}", lambda: run_cli(argv, out), check)

        return [job(*problem) for problem in self.problems]


WORKLOADS = {w.name: w for w in (SweepAcceptance, OmpLarge, RicEnum, CliOmpRun)}
