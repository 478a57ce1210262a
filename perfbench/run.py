"""Benchmark for omp-sharp.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``.  One process runs one workload as a closed loop, one job at a
time, in whole rounds of the same jobs until ``--seconds`` have passed.
Every job's output is checked; a job that raises or fails its check counts
as failed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from rounds that alternate between untraced and traced.  Results go
to ``.perfbench/results/`` and spans to ``.perfbench/traces/``.
"""

import os

# One BLAS thread, set before numpy loads: on a 2-core machine two OpenBLAS
# threads made run_omp at 1000x4000 about 45% slower and less repeatable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# workloads.WORKLOADS, named here so that arguments parse before omp_sharp loads
WORKLOAD_NAMES = ("sweep_acceptance", "omp_large", "ric_enum", "cli_omp_run")

# A fresh interpreter that imports the package and its CLI: the set-up a user
# pays before the first job.
SETUP_PROBE = "import omp_sharp, omp_sharp.cli"
SETUP_PROBES = 30


def setup_probe():
    """Wall time of one fresh interpreter importing omp_sharp and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def fastest_round(samples):
    """(seconds, items, per-kind seconds) of a round made of each job kind's
    fastest run.

    On a shared machine the speed drifts by a quarter and more, over seconds
    to minutes, as other tenants load the cores; the fastest of a kind's
    repetitions is the one least slowed, and it repeats from run to run
    where means and medians of all repetitions do not.
    """
    best = [min(runs) for runs in samples.values() if runs]
    return sum(s for s, _ in best), sum(i for _, i in best), [s for s, _ in best]


def measure(workload, seconds, trace, probe=setup_probe):
    """Run ``workload`` in whole rounds for about ``seconds``; return the result.

    Untraced runs take SETUP_PROBES set-up probes, evenly spaced between
    jobs over the run.  Traced runs alternate untraced and traced rounds, in
    pairs, and report the per-layer metrics of the traced rounds and how much
    slower the traced rounds ran.
    """
    import tracing
    from checks import CheckFailed
    from workloads import CliFailed

    tracer = tracing.Tracer() if trace else None
    step = 2 if trace else 1
    # warm-up, untimed; a job that fails here fails again, counted, below
    with contextlib.suppress(Exception):
        workload.jobs()[0].run()

    # traced? -> job kind -> [(seconds, items)] of the jobs that passed their check
    samples = {False: {}, True: {}}
    probes, failures = [], []
    attempted = 0
    round_index = 0
    start = time.perf_counter()
    next_probe, probe_interval = 0.0, seconds / SETUP_PROBES
    while True:
        traced = bool(trace) and round_index % 2 == 1
        jobs = workload.jobs()
        if traced:
            tracer.install()
        try:
            for job in jobs:
                attempted += 1
                t0 = time.perf_counter()
                try:
                    if traced:
                        output = tracer.job(attempted, job.run)
                    else:
                        output = job.run()
                    elapsed = time.perf_counter() - t0
                    items = job.check(output)
                except (CliFailed, CheckFailed) as exc:
                    failures.append(f"round {round_index} {job.kind}: {exc}")
                except Exception as exc:  # a crash in the program is a failed job
                    traceback.print_exc()
                    failures.append(f"round {round_index} {job.kind}: "
                                    f"{type(exc).__name__}: {exc}")
                else:
                    samples[traced].setdefault(job.kind, []).append((elapsed, items))
                if not trace and time.perf_counter() - start >= next_probe:
                    probes.append(probe())
                    next_probe += probe_interval
        finally:
            if traced:
                tracer.uninstall()
        round_index += 1
        spent = time.perf_counter() - start
        if round_index % step == 0 and spent * (round_index + step) / round_index > seconds:
            break

    for line in failures:
        print(f"{workload.name}: {line}", file=sys.stderr)

    job_seconds, items, per_kind = fastest_round(samples[False])
    if trace:
        traced_seconds = fastest_round(samples[True])[0]
        overhead = 100.0 * (traced_seconds / job_seconds - 1.0) if job_seconds else 0.0
        metrics = tracer.layer_metrics(round_index // 2, overhead)
    else:
        metrics = {
            "items_per_s": {"value": items / job_seconds if job_seconds else 0.0,
                            "unit": "1/s"},
            "job_p50_ms": {"value": 1e3 * statistics.median(per_kind) if per_kind else 0.0,
                           "unit": "ms"},
            "setup_s": {"value": min(probes) if probes else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    # every job that did not fail passed its check
    result = {"correct": True, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    details = {"rounds": round_index, "setup_probes_s": probes, "failures": failures,
               "jobs_s": {("traced " if t else "") + kind: [s for s, _ in runs]
                          for t in (False, True) for kind, runs in samples[t].items()}}
    return result, details, tracer


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "omp_sharp" / "__init__.py").is_file():
        print(f"error: no omp_sharp package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import omp_sharp
    import workloads

    if Path(omp_sharp.__file__).resolve().parent != SRC / "omp_sharp":
        print(f"error: imported omp_sharp from {omp_sharp.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        result, details, tracer = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps({**result, **details}, indent=1))
    if tracer is not None:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
