"""Each parameter of the paper's premises has one check and one error class
at every entry point: a sparsity or order K raises InvalidOrder, and an RIC
delta, a noise level epsilon and an example's magnitude a raise
ParameterOutOfRange, from a Python function, ``omp run``, ``construct`` and
an experiment config alike.  Any argument at its boundary values ends in
exit 0, 2, 3 or 4, never in a traceback, and a refused command leaves no
output file."""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omp_sharp
from omp_sharp import cli
from omp_sharp.errors import InvalidOrder, ParameterOutOfRange
from omp_sharp.instances import (
    NOISE_L2,
    build_counterexample_l2,
    counterexample_correlations,
    build_example1,
    build_example2,
    l2_noises,
    random_matrices_with_ric,
)
from omp_sharp.omp import (
    FixedIterations,
    ResidualL2,
    linf_stopping_threshold,
    min_magnitude_threshold_l2,
    prior_art_thresholds,
)
from omp_sharp.rip import exact_ric, in_sharp_region

DATA = Path(__file__).parent / "data"
A_FILE, Y_FILE = str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k3.txt")
BIG = 10**400

# Each quantity's error class, the values it refuses, and how each entry
# point is called with one of them.
QUANTITIES = {
    "K": (InvalidOrder, [0, -1, BIG], {
        "python": lambda K: min_magnitude_threshold_l2(K, 0.1, 1.0),
        "omp run": lambda K: ["omp", "run", A_FILE, Y_FILE, "linf:0.5", "--sparsity", str(K),
                              "--delta2", "0.1", "--delta-k1", "0.2"],
        "construct": lambda K: ["construct", "l2", "-K", str(K), "--delta", "0.1"],
        "config": lambda K: {"experiment": "ComparisonTable", "k_values": [K]},
    }),
    "delta": (ParameterOutOfRange, [-1.0, math.nan, math.inf, 1.0], {
        "python": lambda delta: in_sharp_region(1, delta),
        "omp run": lambda delta: ["omp", "run", A_FILE, Y_FILE, "linf:0.5", "--sparsity", "1",
                                  "--delta2", "0", "--delta-k1", repr(delta)],
        "construct": lambda delta: ["construct", "l2", "-K", "1", "--delta", repr(delta)],
        "config": lambda delta: {"experiment": "ComparisonTable", "deltas": [delta]},
    }),
    "epsilon": (ParameterOutOfRange, [0.0, -1.0, math.nan, math.inf], {
        "python": lambda epsilon: min_magnitude_threshold_l2(1, 0.1, epsilon),
        "omp run": lambda epsilon: ["omp", "run", A_FILE, Y_FILE, f"l2:{epsilon!r}"],
        "construct": lambda epsilon: ["construct", "linf", "-K", "1", "--delta", "0.1",
                                      "--epsilon", repr(epsilon)],
        "config": lambda epsilon: {"experiment": "ComparisonTable", "epsilons": [epsilon]},
    }),
    "a": (ParameterOutOfRange, [0.0, -1.0, math.nan, math.inf], {
        "python": lambda a: build_example2(0.3, a),
        "construct": lambda a: ["construct", "example2", "--delta", "0.3", "--a", repr(a)],
    }),
}

CASES = [
    pytest.param(quantity, entry, value, id=f"{quantity}-{entry}-{value!r:.12}")
    for quantity, (_, values, entries) in QUANTITIES.items()
    for entry in entries
    for value in values
]


def run_in_process(args, tmp_path, capsys):
    """``omp-sharp ARGS -o FILE``'s exit code and stderr; FILE must not
    exist afterwards."""
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as info:
        cli.main([*args, "-o", str(out)])
    assert not out.exists()
    return info.value.code, capsys.readouterr().err


def run_config(doc, tmp_path, capsys):
    config, csv_path = tmp_path / "cfg.json", tmp_path / "out.csv"
    config.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        cli.main(["experiment", str(config), "--csv", str(csv_path)])
    assert not csv_path.exists()
    return info.value.code, capsys.readouterr().err


@pytest.mark.parametrize("quantity, entry, value", CASES)
def test_each_quantity_has_one_class_at_every_entry_point(tmp_path, capsys, quantity, entry,
                                                          value):
    cls, _, entries = QUANTITIES[quantity]
    if entry == "python":
        with pytest.raises(cls):
            entries[entry](value)
        return
    run = run_config if entry == "config" else run_in_process
    code, err = run(entries[entry](value), tmp_path, capsys)
    assert code == 3
    assert err.startswith(f"error: {cls.__name__}: ") and err.count("\n") == 1


def test_more_python_entry_points_refuse_alike():
    for make in (FixedIterations, lambda K: prior_art_thresholds(K, 0.1, 1.0),
                 lambda K: exact_ric(np.eye(3), K),
                 lambda K: counterexample_correlations(NOISE_L2, K, 0.1, 1.0, 1.0)):
        for K in (0, -1, 2.0, True, BIG):
            with pytest.raises(InvalidOrder):
                make(K)
    rngs = [np.random.default_rng(0)]
    for delta in (0.0, -1.0, math.nan, math.inf, 1.0):
        with pytest.raises(ParameterOutOfRange):
            random_matrices_with_ric(4, 2, delta, rngs)
        with pytest.raises(ParameterOutOfRange):
            build_example1(delta, 100.0)
        if delta != 0.0:  # an RIC may be 0; an instance's delta may not
            with pytest.raises(ParameterOutOfRange):
                counterexample_correlations(NOISE_L2, 1, delta, 1.0, 1.0)
    for epsilon in (0.0, -1.0, math.nan, math.inf, BIG):
        for make in (ResidualL2, lambda e: l2_noises(rngs, 3, e),
                     lambda e: build_counterexample_l2(1, 0.1, e, 0.1),
                     lambda e: counterexample_correlations(NOISE_L2, 1, 0.1, e, 1.0)):
            with pytest.raises(ParameterOutOfRange):
                make(epsilon)


def test_faults_of_the_scattered_checks_fail_with_their_class(tmp_path, capsys):
    """Each of these returned a wrong value or crashed before the checks
    were made one per parameter."""
    with pytest.raises(ParameterOutOfRange, match="epsilon must be > 0"):
        linf_stopping_threshold(1, 0.1, 0.3, -1.0)  # returned -2.25
    with pytest.raises(ParameterOutOfRange, match="epsilon must be finite"):
        min_magnitude_threshold_l2(1, 0.3, math.nan)  # returned NaN
    with pytest.raises(ParameterOutOfRange, match="delta must be finite and lie in"):
        prior_art_thresholds(1, 1.5, 1.0)  # ValueError: math domain error
    # an OverflowError traceback, exit 1
    code, err = run_in_process(["omp", "run", A_FILE, Y_FILE, "linf:1", "--sparsity", str(BIG),
                                "--delta2", "0.1", "--delta-k1", "0.2"], tmp_path, capsys)
    assert code == 3 and err.startswith("error: InvalidOrder: sparsity K = 1000")
    linf_flags = ["--sparsity", "1", "--delta2", "0.1", "--delta-k1", "0.2"]
    for rule in (["l2:inf"], ["naive-linf:inf"], ["linf:inf", *linf_flags]):
        code, err = run_in_process(["omp", "run", A_FILE, Y_FILE, *rule], tmp_path, capsys)
        assert code == 3 and err.startswith("error: ParameterOutOfRange: ")
    # a bad epsilon was a GammaOutOfRange about gamma
    code, err = run_in_process(["construct", "l2", "-K", "2", "--delta", "0.3", "--epsilon", "-1"],
                               tmp_path, capsys)
    assert (code, err) == (3, "error: ParameterOutOfRange: epsilon must be > 0, got -1.0\n")
    # tracebacks, exit 1: a delta at which the examples' default magnitude
    # divided by 0 or took a negative square root, a number beyond the
    # float range in a config, and a K whose 4K + 1, under the prior-art
    # bound's square root, has no float
    for args in (["example1", "--delta", "1"], ["example2", "--delta", "1.5"],
                 ["example3", "--delta", repr(1 / math.sqrt(2))]):
        code, err = run_in_process(["construct", *args], tmp_path, capsys)
        assert code == 3 and err.startswith("error: ParameterOutOfRange: delta must be finite")
    for doc, error in [
        ({"experiment": "Theorem1Sweep", "margin": BIG}, "ParameterOutOfRange"),
        ({"experiment": "ComparisonTable", "epsilons": [BIG]}, "ParameterOutOfRange"),
        ({"experiment": "ComparisonTable", "k_values": [10**308]}, "InvalidOrder"),
    ]:
        code, err = run_config(doc, tmp_path, capsys)
        assert code == 3 and err.startswith(f"error: {error}: ")


# Boundary values of every argument: 0, -1, NaN, the infinities, the least
# subnormal, 1 - ulp, 1/sqrt(K+1) and its neighbours at K = 1 and 2, and a
# number beyond the float range.  No size here is one numpy would allocate.
def _around(x):
    return [math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)]


FLOATS = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324,
                          math.nextafter(1.0, 0.0), 1.0, *_around(1 / math.sqrt(2)),
                          *_around(1 / math.sqrt(3)), 0.3, BIG])
INTS = st.sampled_from([0, -1, 1, 2, BIG])


def _text(value):
    return str(value) if isinstance(value, int) else repr(value)


@st.composite
def construct_args(draw):
    kind = draw(st.sampled_from(["l2", "linf", "example1", "example2", "example3"]))
    args = ["construct", kind, "--delta", _text(draw(FLOATS))]
    if kind.startswith("example"):
        if draw(st.booleans()):
            args += ["--a", _text(draw(FLOATS))]
        return args
    args += ["-K", _text(draw(INTS)), "--epsilon", _text(draw(FLOATS))]
    if draw(st.booleans()):
        args += ["--gamma", _text(draw(FLOATS))]
    return args


@st.composite
def omp_run_args(draw):
    name = draw(st.sampled_from(["fixed", "l2", "naive-linf", "linf"]))
    value = draw(INTS if name == "fixed" else FLOATS)
    args = ["omp", "run", A_FILE, Y_FILE, f"{name}:{_text(value)}"]
    if name == "linf":
        args += ["--sparsity", _text(draw(INTS))]
        if draw(st.booleans()):
            args += ["--exact-ric"]
        else:
            args += ["--delta2", _text(draw(FLOATS)), "--delta-k1", _text(draw(FLOATS))]
    if draw(st.booleans()):
        args += ["--max-iterations", _text(draw(INTS))]
    return args


@st.composite
def ric_args(draw):
    args = ["ric", str(DATA / "ric_gauss_32x16.txt"), _text(draw(INTS))]
    if draw(st.booleans()):
        args += ["--all-orders"]
    if draw(st.booleans()):
        args += ["--budget", _text(draw(INTS))]
    return args


# The experiments and the number fields each reads; trials, m and n keep
# their defaults, so no sweep grows beyond a few milliseconds.
EXPERIMENT_FIELDS = {
    "Theorem1Sweep": ["k_values", "delta_fractions", "deltas", "epsilons", "seed", "margin"],
    "Theorem2Sweep": ["k_values", "delta_fractions", "deltas", "epsilons", "seed", "margin"],
    "Theorem3Demo": ["k_values", "delta_fractions", "deltas", "epsilons", "gamma_fractions"],
    "Theorem4Demo": ["k_values", "delta_fractions", "deltas", "epsilons", "gamma_fractions"],
    "Lemma1Suite": ["seed", "k_values"],
    "ComparisonTable": ["k_values", "delta_fractions", "deltas", "epsilons"],
    "Example1": ["deltas"],
    "Example2": ["deltas"],
    "Example3": ["deltas"],
}
INT_FIELDS = ("k_values", "seed")
LIST_FIELDS = ("k_values", "delta_fractions", "deltas", "epsilons", "gamma_fractions")


@st.composite
def experiment_config(draw):
    experiment = draw(st.sampled_from(sorted(EXPERIMENT_FIELDS)))
    doc = {"experiment": experiment}
    for name in draw(st.sets(st.sampled_from(EXPERIMENT_FIELDS[experiment]), max_size=2)):
        value = draw(INTS if name in INT_FIELDS else FLOATS)
        doc[name] = [value] if name in LIST_FIELDS else value
    return doc


@settings(max_examples=150, deadline=None)
@given(st.one_of(construct_args(), omp_run_args(), ric_args(), experiment_config()))
def test_boundary_arguments_end_in_an_exit_code_and_leave_no_output_on_error(args):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if isinstance(args, dict):
            (tmp / "cfg.json").write_text(json.dumps(args))
            argv = ["experiment", str(tmp / "cfg.json"), "--csv", str(tmp / "out.csv"),
                    "--summary", str(tmp / "summary.json")]
        else:
            argv = [*args, "-o", str(tmp / "out.json")]
            if args[0] == "construct":
                argv += ["--matrix-out", str(tmp / "A.txt")]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        code = info.value.code
        assert code in (0, 2, 3, 4)
        written = sorted(p.name for p in tmp.iterdir() if p.name != "cfg.json")
        assert bool(written) == (code == 0), written


PACKAGE_ROOT = str(Path(omp_sharp.__file__).resolve().parent.parent)

# Address space capped at 2 GiB: the refused sizes are 74.5 GiB (construct's
# (K+1) x (K+1) operator at K = 100000) and 14.6 TiB (a Theorem1Sweep with
# m = n = 10**6), so numpy refuses them without touching any memory.
REFUSED_SIZES = """
import json, resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
cap = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from omp_sharp import cli
out, config = sys.argv[1], sys.argv[2]
results = []
for argv in (["construct", "l2", "-K", "100000", "--delta", "0.001", "-o", out],
             ["experiment", config, "--csv", out, "--summary", out + ".s"]):
    try:
        cli.main(argv)
    except SystemExit as exc:
        results.append(exc.code)
print(json.dumps(results))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS caps allocations on Linux")
def test_refused_allocation_is_one_error_line_and_exit_3(tmp_path):
    config = tmp_path / "big.json"
    config.write_text(json.dumps({"experiment": "Theorem1Sweep", "m": 10**6, "n": 10**6}))
    out = tmp_path / "out"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]
                                          if p))
    result = subprocess.run([sys.executable, "-c", REFUSED_SIZES, str(out), str(config)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert json.loads(result.stdout) == [3, 3], result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: MemoryError: ") for line in lines)
    assert "74.5 GiB" in lines[0]
    assert list(tmp_path.iterdir()) == [config]
