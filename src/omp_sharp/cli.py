"""Command-line interface.

Subcommands:

    omp run      run orthogonal matching pursuit on a matrix/measurement pair
    ric          exact restricted isometry constants of a matrix file
    construct    build worst-case and demonstration instances as JSON
    experiment   run a seeded sweep from a JSON config, emitting CSV + summary

Exit codes: 0 success, 2 usage or parse error or an unwritable output path,
3 numerical/precondition error, 4 enumeration budget exceeded.
"""

import contextlib
import json
import math
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import instances as inst
from .errors import BudgetExceeded, InvalidOrder, OmpSharpError, ParameterOutOfRange, ParseError
from .experiments import ExperimentConfig, write_experiment_outputs
from .omp import (
    UNIT_NORM_TOLERANCE,
    CorrelationLInf,
    FixedIterations,
    ResidualL2,
    check_omp_inputs,
    linf_stopping_threshold,
    run_omp,
)
from .rip import DEFAULT_BUDGET, _subset_count, exact_ric, linf_threshold_rics
from .serialize import (
    format_matrix_text,
    instance_to_json_dict,
    parse_matrix_text,  # noqa: F401  (perfbench/tracing.py traces the parse layer by this name)
    read_matrix,
    read_text,
    read_vector,
    write_json,
)


def _open_output(path):
    """``path`` opened for writing ("-" is stdout); failing, a click.FileError.

    A command opens its outputs once its inputs are read and checked, before
    its computation, so an unwritable path fails before any work; JSON is
    then encoded straight into the open file by ``write_json``."""
    try:
        return click.open_file(path, "w")
    except OSError as exc:
        raise click.FileError(path, exc.strerror) from None


def _reject_unused(ctx, names, why):
    """A usage error if any option of ``names`` was given on the command
    line, where it would have no effect, for the reason ``why``."""
    given = [
        param.opts[0] for param in ctx.command.params
        if param.name in names and ctx.get_parameter_source(param.name) != ParameterSource.DEFAULT
    ]
    if given:
        raise click.UsageError(f"{', '.join(given)}: {why}", ctx)


def _parse_rule(spec, A, sparsity, use_exact_ric, delta2, delta_k1, unit_norm):
    """Resolve a rule spec string (fixed:K, l2:eps, linf:eps, naive-linf:eps)
    into a function of no arguments that makes the stopping rule.

    The spec and its options are checked here; only the RIC search of
    --exact-ric is left to the returned function, so that a command can
    open its output between the two.  For linf the epsilon is the noise
    level; the actual stopping threshold is derived from it with either
    exactly enumerated deltas (--exact-ric) or the user-supplied
    --delta2/--delta-k1 pair.  --unit-norm must be true of A's columns to
    within UNIT_NORM_TOLERANCE.
    """
    name, _, value = spec.partition(":")
    if not value:
        raise click.UsageError(f"rule spec {spec!r} must look like name:value")
    try:
        if name == "fixed":
            rule = FixedIterations(int(value))
        elif name == "l2":
            rule = ResidualL2(float(value))
        elif name == "naive-linf":
            rule = CorrelationLInf(float(value))
        elif name == "linf":
            epsilon = float(value)
        else:
            raise click.UsageError(
                f"unknown rule {name!r}; expected fixed, l2, linf or naive-linf"
            )
    except ValueError:
        raise click.UsageError(f"rule spec {spec!r} has a malformed value")
    if name != "linf":
        return lambda: rule
    if sparsity is None:
        raise click.UsageError("linf rule requires --sparsity")
    if sparsity < 1:
        raise InvalidOrder(f"sparsity K must be >= 1, got {sparsity}")
    if not use_exact_ric and (delta2 is None or delta_k1 is None):
        raise click.UsageError("linf rule requires --exact-ric or both --delta2 and --delta-k1")
    if unit_norm:
        deviation = float(np.abs(np.linalg.norm(A, axis=0) - 1.0).max())
        if deviation > UNIT_NORM_TOLERANCE:
            raise ParameterOutOfRange(
                f"--unit-norm: a column norm differs from 1 by {deviation:.3g}, "
                f"more than UNIT_NORM_TOLERANCE = {UNIT_NORM_TOLERANCE:g}"
            )

    def linf_rule(delta2=delta2, delta_k1=delta_k1):
        if use_exact_ric:
            [delta_k1], [delta2] = linf_threshold_rics(A[None], sparsity, unit_norm)
        return CorrelationLInf(linf_stopping_threshold(
            sparsity, delta2, delta_k1, epsilon, unit_norm_columns=unit_norm
        ))

    if use_exact_ric:
        return linf_rule
    # given deltas are checked now, with the rule they make
    rule = linf_rule()
    return lambda: rule


@click.group()
def cli():
    """Sparse support recovery via orthogonal matching pursuit."""


@cli.group("omp")
def omp_group():
    """Run the recovery algorithm."""


@omp_group.command("run")
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("measurement_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("rule_spec")
@click.option("--sparsity", type=int, default=None, help="Sparsity K for the linf threshold.")
@click.option("--exact-ric", "use_exact_ric", is_flag=True,
              help="Derive the linf threshold from exactly enumerated deltas.")
@click.option("--delta2", type=float, default=None, help="Order-2 delta for the linf threshold.")
@click.option("--delta-k1", type=float, default=None, help="Order-(K+1) delta for the linf threshold.")
@click.option("--unit-norm", is_flag=True, help="Use the relaxed threshold for unit-norm columns.")
@click.option("--max-iterations", type=int, default=None)
@click.option("--tie-seed", type=click.IntRange(min=0), default=None,
              help="Break correlation ties at random with this seed (default: smallest index).")
@click.option("--output", "-o", type=click.Path(dir_okay=False, allow_dash=True), default="-",
              help="Write the trace JSON here instead of stdout.")
@click.pass_context
def omp_run(ctx, matrix_file, measurement_file, rule_spec, sparsity, use_exact_ric,
            delta2, delta_k1, unit_norm, max_iterations, tie_seed, output):
    """Run the solver and emit the iteration trace as JSON."""
    if rule_spec.partition(":")[0] != "linf":
        _reject_unused(ctx, ("sparsity", "use_exact_ric", "delta2", "delta_k1", "unit_norm"),
                       "used only by the linf rule")
    elif use_exact_ric:
        _reject_unused(ctx, ("delta2", "delta_k1"), "--exact-ric enumerates the deltas")
    A = read_matrix(matrix_file)
    y = read_vector(measurement_file)
    make_rule = _parse_rule(rule_spec, A, sparsity, use_exact_ric, delta2, delta_k1, unit_norm)
    # the rule --exact-ric makes is a linf one, which no iteration cap limits
    check_omp_inputs(y, A, None if use_exact_ric else make_rule(), max_iterations)
    rng = None if tie_seed is None else np.random.default_rng(tie_seed)
    with _open_output(output) as fh:
        trace = run_omp(y, A, make_rule(), max_iterations=max_iterations, tie_break_rng=rng)
        write_json(trace.to_json_dict(), fh)


@cli.command("ric")
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("order", type=int)
@click.option("--all-orders", is_flag=True,
              help="Report every order 1..ORDER in one monotone table.")
@click.option("--budget", type=click.IntRange(min=1), default=DEFAULT_BUDGET,
              show_default=True,
              help="Cap on C(columns, k) for each order k, pruned subsets included.")
@click.option("--output", "-o", type=click.Path(dir_okay=False, allow_dash=True), default="-")
def ric_cmd(matrix_file, order, all_orders, budget, output):
    """Exact restricted isometry constant by branch-and-bound enumeration."""
    A = read_matrix(matrix_file)
    # ORDER itself too: below 1 the range 1..ORDER of --all-orders is empty
    _subset_count(A.shape[1], order, math.inf)
    orders = range(1, order + 1) if all_orders else [order]
    for k in orders:
        _subset_count(A.shape[1], k, budget)
    with _open_output(output) as fh:
        reports = [exact_ric(A, k, budget=budget).to_json_dict() for k in orders]
        write_json({"reports": reports} if all_orders else reports[0], fh)


def _certification(instance, sparsity):
    A = instance.A
    x = instance.x
    ric = exact_ric(A, min(sparsity + 1, A.shape[1]))
    correlations = A.T @ instance.measurements()
    on = [abs(float(correlations[i - 1])) for i in sorted(x.support)]
    off = [
        abs(float(correlations[i - 1]))
        for i in range(1, A.shape[1] + 1)
        if i not in x.support
    ]
    noise_bound = instance.noise_level()
    return {
        "exact_ric": ric.to_json_dict(),
        "noise_model": instance.noise_model,
        "noise_bound_value": noise_bound,
        "epsilon": instance.epsilon,
        "noise_bound_satisfied": noise_bound <= instance.epsilon + inst.BOUND_SLACK,
        "first_iteration_correlations": {
            "max_on_support": max(on) if on else None,
            "max_off_support": max(off) if off else None,
        },
    }


@cli.command("construct")
@click.argument("kind", type=click.Choice([*inst.COUNTEREXAMPLES, *inst.EXAMPLES]))
@click.option("--sparsity", "-K", "sparsity", type=int, default=1, show_default=True)
@click.option("--delta", type=float, required=True)
@click.option("--epsilon", type=float, default=1.0, show_default=True)
@click.option("--gamma-fraction", type=float, default=0.9, show_default=True,
              help="Signal magnitude as a fraction of the open upper bound (l2/linf).")
@click.option("--gamma", type=float, default=None, help="Raw signal magnitude override.")
@click.option("--a", "a_value", type=float, default=None,
              help="Signal magnitude for the example instances (defaults per example).")
@click.option("--output", "-o", type=click.Path(dir_okay=False, allow_dash=True), default="-")
@click.option("--matrix-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the sensing matrix in the matrix text format.")
@click.pass_context
def construct_cmd(ctx, kind, sparsity, delta, epsilon, gamma_fraction, gamma, a_value,
                  output, matrix_out):
    """Build a worst-case or demonstration instance and certify it."""
    if kind in inst.EXAMPLES:
        _reject_unused(ctx, ("sparsity", "epsilon", "gamma_fraction", "gamma"),
                       "used only by the l2 and linf kinds")
    else:
        _reject_unused(ctx, ("a_value",), "used only by the example kinds")
        if gamma is not None:
            _reject_unused(ctx, ("gamma_fraction",), "overridden by --gamma")
    K = sparsity
    if kind in inst.COUNTEREXAMPLES:
        build, gamma_bound = inst.COUNTEREXAMPLES[kind]
        if gamma is None:
            gamma = gamma_fraction * gamma_bound(K, delta, epsilon)
        instance = build(K, delta, epsilon, gamma)
    else:
        build, default_a = inst.EXAMPLES[kind]
        instance = build(delta, default_a(delta) if a_value is None else a_value)
        K = 1
    with contextlib.ExitStack() as outputs:
        fh = outputs.enter_context(_open_output(output))
        matrix_fh = None if matrix_out is None else outputs.enter_context(
            _open_output(matrix_out))
        doc = {
            "instance": instance_to_json_dict(instance),
            "certification": _certification(instance, K),
        }
        write_json(doc, fh)
        if matrix_fh is not None:
            matrix_fh.write(format_matrix_text(instance.A))


@cli.command("experiment")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Override the config's CSV output path.")
@click.option("--summary", "summary_path", type=click.Path(dir_okay=False), default=None,
              help="Override the config's JSON summary path.")
def experiment_cmd(config_file, csv_path, summary_path):
    """Run a seeded experiment sweep from a JSON config."""
    try:
        doc = json.loads(read_text(config_file))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{config_file}: {exc}", line=exc.lineno)
    config = ExperimentConfig.from_json_dict(doc)
    csv_path = csv_path or config.output_csv
    summary_path = summary_path or config.output_summary
    if csv_path is None:
        raise click.UsageError("no CSV output path: set output_csv in the config or pass --csv")
    try:
        summary = write_experiment_outputs(config, csv_path, summary_path)
    except OSError as exc:
        if exc.filename is None:
            raise
        raise click.FileError(exc.filename, exc.strerror) from None
    with _open_output("-") as fh:
        write_json(summary, fh)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.FileError as exc:
        click.echo(f"error: cannot write {exc.ui_filename}: {exc.message}", err=True)
        sys.exit(2)
    except click.UsageError as exc:
        exc.show()
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except ParseError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except BudgetExceeded as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4)
    except OmpSharpError as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
