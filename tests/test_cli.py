import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import omp_sharp
from omp_sharp import cli, rip
from omp_sharp.serialize import format_matrix_text, remove_output

# The directory this process imported omp_sharp from, put first on the child
# process's path so that the CLI under test is the same source.
PACKAGE_ROOT = str(Path(omp_sharp.__file__).resolve().parent.parent)


def run_cli(*args, text=True):
    cmd = [sys.executable, "-m", "omp_sharp.cli", *args]
    path = [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(cmd, capture_output=True, text=text, env=env)


def write_identity(tmp_path, n=3):
    path = tmp_path / "identity.txt"
    rows = []
    for i in range(n):
        rows.append(",".join("1" if i == j else "0" for j in range(n)))
    path.write_text("\n".join(rows) + "\n")
    return path


def test_omp_run_zero_measurements(tmp_path):
    matrix = write_identity(tmp_path)
    y = tmp_path / "y.txt"
    y.write_text("0\n0\n0\n")
    result = run_cli("omp", "run", str(matrix), str(y), "l2:1")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["final_support"] == []
    assert doc["iterations"] == []


def test_omp_run_naive_linf_example1(tmp_path):
    delta = 0.5
    result = run_cli(
        "construct", "example1", "--delta", str(delta),
        "-o", str(tmp_path / "inst.json"),
        "--matrix-out", str(tmp_path / "A.txt"),
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "inst.json").read_text())
    inst = doc["instance"]
    y = [
        sum(a * x for a, x in zip(row, inst["x"])) + v
        for row, v in zip(inst["A"], inst["v"])
    ]
    y_file = tmp_path / "y.txt"
    y_file.write_text("\n".join("%.17g" % t for t in y) + "\n")
    result = run_cli("omp", "run", str(tmp_path / "A.txt"), str(y_file), "naive-linf:1")
    assert result.returncode == 0
    trace = json.loads(result.stdout)
    assert trace["final_support"] == [1, 2]
    # the corrected threshold stops after the first, correct selection
    result = run_cli(
        "omp", "run", str(tmp_path / "A.txt"), str(y_file), "linf:1",
        "--sparsity", "1", "--exact-ric",
    )
    trace = json.loads(result.stdout)
    assert trace["final_support"] == [1]
    assert len(trace["iterations"]) == 1


def test_exact_ric_linf_rule_tolerates_round_off_in_delta_2(tmp_path):
    """On this matrix the enumerated delta_2 exceeds delta_3 by one ulp; the
    CLI clamps it to delta_3 instead of failing the monotonicity check."""
    c = 0.38082409669284656
    A = np.eye(6)
    A[:, 5] = [c, 0.0, 0.0, 0.0, 0.0, math.sqrt(1.0 - c * c)]
    matrix = tmp_path / "A.txt"
    matrix.write_text(format_matrix_text(A))
    y = tmp_path / "y.txt"
    y.write_text(format_matrix_text((A @ np.array([1.0, 0.0, 2.0, 0.0, 0.0, 0.0]))[:, None]))
    result = run_cli(
        "omp", "run", str(matrix), str(y), "linf:0.01", "--sparsity", "2", "--exact-ric"
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["final_support"] == [1, 3]
    # an explicit out-of-order pair is still rejected
    result = run_cli(
        "omp", "run", str(matrix), str(y), "linf:0.01", "--sparsity", "2",
        "--delta2", "0.4", "--delta-k1", "0.3",
    )
    assert result.returncode == 3
    assert "InvalidDeltaOrder" in result.stderr


@pytest.mark.parametrize("sparsity", ["0", "-1"])
@pytest.mark.parametrize("deltas", [["--exact-ric"], ["--delta2", "0.1", "--delta-k1", "0.2"]])
def test_linf_rule_sparsity_below_one_exit_3(tmp_path, sparsity, deltas):
    matrix = write_identity(tmp_path)
    y = tmp_path / "y.txt"
    y.write_text("1\n2\n3\n")
    result = run_cli(
        "omp", "run", str(matrix), str(y), "linf:0.5", "--sparsity", sparsity, *deltas
    )
    assert result.returncode == 3, result.stderr
    assert "InvalidOrder" in result.stderr
    # the error names the sparsity given, not a RIC order derived from it
    assert f"sparsity K must be an integer in [1, inf], got {sparsity}" in result.stderr


def test_omp_run_dimension_mismatch_exit_3(tmp_path, capsys):
    matrix = write_identity(tmp_path)
    y = tmp_path / "y.txt"
    y.write_text("1\n2\n")
    result = run_cli("omp", "run", str(matrix), str(y), "l2:1")
    assert result.returncode == 3
    assert "DimensionMismatch" in result.stderr
    # each input check runs before the -o file is opened
    out = tmp_path / "t.json"
    A, y40 = str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k3.txt")
    for args, error in [
        ((A, y40, "fixed:30"), "FixedIterations count must be an integer in [1, 16], got 30"),
        ((A, y40, "l2:0.01", "--max-iterations", "0"),
         "max_iterations must be an integer in [1, 16], got 0"),
        ((str(DATA / "ric_gauss_32x16.txt"), y40, "l2:0.01"),
         "DimensionMismatch: matrix has 32 rows but y has shape (40,)"),
    ]:
        run_in_process(["omp", "run", *args, "-o", str(out)], code=3)
        assert error in capsys.readouterr().err
        assert not out.exists()


def test_omp_run_bad_rule_spec_exit_2(tmp_path):
    matrix = write_identity(tmp_path)
    y = tmp_path / "y.txt"
    y.write_text("1\n2\n3\n")
    assert run_cli("omp", "run", str(matrix), str(y), "bogus:1").returncode == 2
    assert run_cli("omp", "run", str(matrix), str(y), "l2").returncode == 2
    assert run_cli("omp", "run", str(matrix), str(y), "linf:1").returncode == 2


def test_omp_run_negative_tie_seed_exit_2(tmp_path):
    matrix = write_identity(tmp_path)
    y = tmp_path / "y.txt"
    y.write_text("1\n1\n1\n")
    result = run_cli("omp", "run", str(matrix), str(y), "fixed:1", "--tie-seed", "-1")
    assert result.returncode == 2, result.stderr
    assert "--tie-seed" in result.stderr and "Traceback" not in result.stderr
    result = run_cli("omp", "run", str(matrix), str(y), "fixed:1", "--tie-seed", "0")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("delta2", ["-0.5", "-2"])
def test_linf_rule_negative_delta2_exit_3(tmp_path, delta2):
    matrix = write_identity(tmp_path, n=4)
    y = tmp_path / "y.txt"
    y.write_text("1\n2\n3\n4\n")
    result = run_cli(
        "omp", "run", str(matrix), str(y), "linf:0.01", "--sparsity", "3",
        "--delta2", delta2, "--delta-k1", "0.2",
    )
    assert result.returncode == 3, result.stderr
    assert (f"ParameterOutOfRange: delta_2 must be finite and lie in [0, 1), got {float(delta2)}"
            in result.stderr)


def test_construct_kinds():
    # the worst-case constructions, then the examples, in this order
    kinds = cli.construct_cmd.params[0].type.choices
    assert list(kinds) == ["l2", "linf", "example1", "example2", "example3"]


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1,2\n3,nope\n")
    result = run_cli("ric", str(bad), "1")
    assert result.returncode == 2
    assert "line 2" in result.stderr


def test_non_finite_matrix_entry_exit_2(tmp_path):
    bad = tmp_path / "nan.txt"
    bad.write_text("1,0\n1,nan\n")
    result = run_cli("ric", str(bad), "1")
    assert result.returncode == 2
    assert "line 2" in result.stderr


def test_non_finite_measurement_exit_2(tmp_path):
    matrix = write_identity(tmp_path)
    y = tmp_path / "y.txt"
    y.write_text("1\ninf\n0\n")
    result = run_cli("omp", "run", str(matrix), str(y), "l2:1")
    assert result.returncode == 2
    assert "line 2" in result.stderr


def test_ric_all_orders_monotone(tmp_path):
    result = run_cli(
        "construct", "l2", "-K", "2", "--delta", "0.4",
        "--matrix-out", str(tmp_path / "A.txt"),
        "-o", str(tmp_path / "inst.json"),
    )
    assert result.returncode == 0, result.stderr
    result = run_cli("ric", str(tmp_path / "A.txt"), "3", "--all-orders")
    assert result.returncode == 0
    reports = json.loads(result.stdout)["reports"]
    deltas = [r["delta"] for r in reports]
    assert deltas == sorted(deltas)
    assert abs(deltas[-1] - 0.4) < 1e-10
    for k, r in enumerate(reports, start=1):
        assert r["subsets_evaluated"] + r["subsets_pruned"] == math.comb(3, k)


def test_ric_budget_exceeded_exit_4(tmp_path, monkeypatch, capsys):
    matrix = write_identity(tmp_path, 6)
    result = run_cli("ric", str(matrix), "3", "--budget", "2")
    assert result.returncode == 4
    assert "budget" in result.stderr
    # every requested order is checked before the -o file is opened, and
    # --all-orders searches no order before it refuses the last one
    searched = []
    monkeypatch.setattr(cli, "exact_ric", lambda *args, **kwargs: searched.append(args))
    out = tmp_path / "r.json"
    gauss = str(DATA / "ric_gauss_32x16.txt")
    for args, code, error in [
        (["99"], 3, "InvalidOrder: order must be an integer in [1, 16], got 99"),
        (["17", "--all-orders"], 3, "InvalidOrder: order must be an integer in [1, 16], got 17"),
        # 1..ORDER is empty here, so ORDER itself is checked
        (["0", "--all-orders"], 3, "InvalidOrder: order must be an integer in [1, 16], got 0"),
        (["8", "--budget", "10"], 4, "C(16, 8) = 12870 subsets exceeds budget 10"),
        (["8", "--all-orders", "--budget", "100"], 4, "C(16, 2) = 120 subsets exceeds budget 100"),
    ]:
        run_in_process(["ric", gauss, *args, "-o", str(out)], code=code)
        assert error in capsys.readouterr().err
        assert not out.exists() and searched == []


def test_ric_budget_below_one_exit_2(tmp_path):
    """C(n, K) >= 1, so a budget below 1 could never admit a search."""
    matrix = write_identity(tmp_path, 6)
    for budget in ("0", "-1"):
        result = run_cli("ric", str(matrix), "2", "--budget", budget)
        assert result.returncode == 2
        assert "--budget" in result.stderr and "Traceback" not in result.stderr
    assert run_cli("ric", str(matrix), "2", "--budget", "15").returncode == 0


# ``ric`` reports compared byte for byte, so the witness eigenvalue's bits
# and the work counters are covered too; the counters also follow the
# walk's column order.  The matrices are seeded draws:
#     ric_gauss_32x16.txt   default_rng(8101).standard_normal((32, 16)) / sqrt(32)
#     ric_unit_24x30.txt    default_rng(8102).standard_normal((24, 30)), unit columns
DATA = Path(__file__).parent / "data"
GOLDEN_RIC = [
    ("ric_gauss_32x16.txt", "6", ["--all-orders"], "ric_gauss_32x16_order6_all.json"),
    ("ric_unit_24x30.txt", "4", [], "ric_unit_24x30_order4.json"),
]


@pytest.mark.parametrize("matrix, order, flags, expected", GOLDEN_RIC)
def test_ric_output_matches_golden(tmp_path, matrix, order, flags, expected):
    out = tmp_path / expected
    result = run_cli("ric", str(DATA / matrix), order, *flags, "-o", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (DATA / expected).read_bytes()


# ``omp run`` traces frozen from the per-line parser, compared byte for byte.
# The inputs are seeded draws from default_rng(8103), in this order:
#     omp_gauss_40x16.txt   standard_normal((40, 16)), unit columns
#     omp_y_k3.txt          A x + v, x on columns 2, 4, 8, ||v||_2 = 0.01
#     omp_y_k2.txt          A x + v, x on columns 9, 11, ||v||_2 = 0.01
GOLDEN_OMP = [
    ("omp_y_k3.txt", "l2:0.01", [], "omp_l2.json"),
    ("omp_y_k3.txt", "fixed:5", [], "omp_fixed.json"),
    ("omp_y_k2.txt", "linf:0.01", ["--sparsity", "2", "--exact-ric"], "omp_linf_exact.json"),
]


@pytest.mark.parametrize("measurements, rule, flags, expected", GOLDEN_OMP)
def test_omp_run_output_matches_golden(tmp_path, measurements, rule, flags, expected):
    out = tmp_path / expected
    result = run_cli(
        "omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / measurements),
        rule, *flags, "-o", str(out),
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (DATA / expected).read_bytes()


def test_omp_run_stdout_matches_golden():
    result = run_cli(
        "omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k3.txt"), "l2:0.01"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DATA / "omp_l2.json").read_text()


def test_omp_run_crlf_inputs_match_golden(tmp_path):
    copies = []
    for name in ("omp_gauss_40x16.txt", "omp_y_k3.txt"):
        copy = tmp_path / name
        copy.write_bytes((DATA / name).read_bytes().replace(b"\n", b"\r\n"))
        copies.append(str(copy))
    out = tmp_path / "trace.json"
    result = run_cli("omp", "run", *copies, "l2:0.01", "-o", str(out))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (DATA / "omp_l2.json").read_bytes()


def run_in_process(args, code=0):
    with pytest.raises(SystemExit) as info:
        cli.main(args)
    assert info.value.code == code


@pytest.mark.parametrize("sparsity, flags, orders", [
    ("1", [], [2]),
    ("2", ["--unit-norm"], [3]),
    ("2", [], [3, 2]),
])
def test_exact_ric_linf_rule_searches_each_order_once(tmp_path, monkeypatch, sparsity, flags,
                                                      orders):
    searched = []
    stacked = rip.exact_rics

    def counted(A, K):
        searched.append(K)
        return stacked(A, K)

    monkeypatch.setattr(rip, "exact_rics", counted)
    out = tmp_path / "exact.json"
    files = [str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k2.txt"), "linf:0.01"]
    run_in_process(["omp", "run", *files, "--sparsity", sparsity, "--exact-ric", *flags,
                    "-o", str(out)])
    assert searched == orders
    # the trace is that of the threshold on both enumerated deltas
    A = np.loadtxt(DATA / "omp_gauss_40x16.txt", delimiter=",")
    delta_k1 = stacked(A[None], int(sparsity) + 1)[0].delta
    delta2 = min(stacked(A[None], 2)[0].delta, delta_k1)
    given = tmp_path / "given.json"
    run_in_process(["omp", "run", *files, "--sparsity", sparsity, "--delta2", repr(delta2),
                    "--delta-k1", repr(delta_k1), *flags, "-o", str(given)])
    assert out.read_bytes() == given.read_bytes()


@pytest.mark.parametrize("deltas", [["--exact-ric"], ["--delta2", "0.1", "--delta-k1", "0.2"]])
def test_unit_norm_on_other_columns_exit_3(tmp_path, deltas):
    # the columns of this matrix have norms from 0.89 to 1.18
    y = tmp_path / "y.txt"
    y.write_text(format_matrix_text(np.ones((32, 1))))
    result = run_cli("omp", "run", str(DATA / "ric_gauss_32x16.txt"), str(y), "linf:0.01",
                     "--sparsity", "2", "--unit-norm", *deltas)
    assert result.returncode == 3, result.stderr
    assert "ParameterOutOfRange: --unit-norm" in result.stderr
    assert "UNIT_NORM_TOLERANCE" in result.stderr


@pytest.mark.parametrize("scale, code", [(1 + 0.9e-6, 0), (1 + 1.1e-6, 3), (1 - 1.1e-6, 3)])
def test_unit_norm_tolerance(tmp_path, scale, code):
    A = np.loadtxt(DATA / "omp_gauss_40x16.txt", delimiter=",")
    A[:, 5] *= scale
    matrix = tmp_path / "A.txt"
    matrix.write_text(format_matrix_text(A))
    args = ["omp", "run", str(matrix), str(DATA / "omp_y_k2.txt"), "linf:0.01", "--sparsity",
            "2", "--delta2", "0.1", "--delta-k1", "0.2", "--unit-norm", "-o",
            str(tmp_path / "t.json")]
    run_in_process(args, code)


UNDECODABLE = b"\xff\xfe1,2\n"


@pytest.mark.parametrize("bad", ["matrix", "measurements"])
def test_omp_run_undecodable_file_exit_2(tmp_path, bad):
    files = {"matrix": write_identity(tmp_path), "measurements": tmp_path / "y.txt"}
    files["measurements"].write_text("1\n2\n3\n")
    files[bad].write_bytes(UNDECODABLE)
    result = run_cli("omp", "run", str(files["matrix"]), str(files["measurements"]), "l2:1")
    assert result.returncode == 2, result.stderr
    assert str(files[bad]) in result.stderr
    assert "Traceback" not in result.stderr


def test_construct_certification_block(tmp_path):
    out = tmp_path / "inst.json"
    result = run_cli(
        "construct", "linf", "-K", "1", "--delta", "0.6", "--epsilon", "1",
        "-o", str(out),
    )
    assert result.returncode == 0, result.stderr
    cert = json.loads(out.read_text())["certification"]
    assert abs(cert["exact_ric"]["delta"] - 0.6) < 1e-10
    assert cert["noise_bound_satisfied"] is True
    # the linf construction saturates its noise budget exactly
    assert abs(cert["noise_bound_value"] - 1.0) < 1e-10
    assert (
        cert["first_iteration_correlations"]["max_off_support"]
        > cert["first_iteration_correlations"]["max_on_support"]
    )


@pytest.mark.parametrize("args, rejected", [
    (["construct", "example2", "--delta", "0.3", "--epsilon", "7"], "--epsilon"),
    (["construct", "example2", "--delta", "0.3", "-K", "5", "--gamma", "3"], "--sparsity, --gamma"),
    (["construct", "example1", "--delta", "0.3", "--gamma-fraction", "0.5"], "--gamma-fraction"),
    (["construct", "l2", "--delta", "0.3", "--a", "2"], "--a"),
    (["construct", "linf", "--delta", "0.3", "--gamma", "0.1", "--gamma-fraction", "0.5"],
     "--gamma-fraction"),
    (["omp", "run", "A", "y", "l2:0.1", "--unit-norm", "--delta2", "0.9", "--sparsity", "99"],
     "--sparsity, --delta2, --unit-norm"),
    (["omp", "run", "A", "y", "fixed:1", "--exact-ric"], "--exact-ric"),
    (["omp", "run", "A", "y", "naive-linf:1", "--delta-k1", "0.2"], "--delta-k1"),
    (["omp", "run", "A", "y", "linf:0.1", "--sparsity", "1", "--exact-ric", "--delta2", "0.1"],
     "--delta2"),
    (["omp", "run", "A", "y", "linf:0.1", "--sparsity", "1", "--exact-ric", "--delta-k1", "0.2"],
     "--delta-k1"),
])
def test_option_without_effect_exit_2(tmp_path, args, rejected):
    """An option that the chosen kind or rule would ignore is a usage error."""
    files = {"A": write_identity(tmp_path), "y": tmp_path / "y.txt"}
    files["y"].write_text("1\n2\n3\n")
    out = tmp_path / "out.json"
    result = run_cli(*(str(files.get(arg, arg)) for arg in args), "-o", str(out))
    assert result.returncode == 2, result.stderr
    assert f"{rejected}: " in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_construct_gate_exit_3(tmp_path, capsys):
    result = run_cli("construct", "example2", "--delta", "0.8")
    assert result.returncode == 3
    assert "ParameterOutOfRange" in result.stderr
    # the instance is built before either output is opened
    out, matrix_out = tmp_path / "c.json", tmp_path / "A.txt"
    # on the boundary K = 3, delta = 0.5 the gamma bound's 1 - sqrt(4) * 0.5 is 0
    for args in (["l2", "-K", "2", "--delta", "0.9"], ["example2", "--delta", "0.8"],
                 ["l2", "-K", "3", "--delta", "0.5"], ["linf", "-K", "3", "--delta", "0.5"]):
        run_in_process(["construct", *args, "-o", str(out), "--matrix-out", str(matrix_out)],
                       code=3)
        assert "error: " in capsys.readouterr().err
        assert not out.exists() and not matrix_out.exists()


def test_construct_sparsity_beyond_float_range_exit_3():
    result = run_cli("construct", "l2", "-K", str(10**400), "--delta", "0.3", "--gamma", "0.1")
    assert result.returncode == 3
    assert "InvalidOrder: sparsity K = 1000" in result.stderr


def test_construct_sparsity_beyond_float_range_at_delta_0_exit_3(capsys):
    # delta = 0 is inside the sharp region for every K, but K + 1 has no float
    run_in_process(["construct", "l2", "-K", str(10**400), "--delta", "0"], code=3)
    assert "error: InvalidOrder: sparsity K = 1000" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("args", [["omp", "run", "{A}", "{y}", "fixed:2"], ["ric", "{A}", "2"]],
                         ids=["omp run", "ric"])
def test_overflowing_products_exit_3(tmp_path, capsys, args):
    """Entries scaled by 1e154, all finite, whose A^T y and A^T A overflow:
    no trace or report, but DegenerateMatrix (at 1e150, omp run recovers
    columns 2 and 5)."""
    A = np.random.default_rng(0).standard_normal((6, 10))
    for scale, code in ((1e150, 0), (1e154, 3)):
        paths = {"A": tmp_path / "A.txt", "y": tmp_path / "y.txt"}
        paths["A"].write_text(format_matrix_text(scale * A))
        paths["y"].write_text(format_matrix_text((scale * A[:, [1, 4]] @ [1.0, -2.0])[:, None]))
        run_in_process([arg.format(**paths) for arg in args], code=code)
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err.startswith("error: DegenerateMatrix: ")
        elif args[0] == "omp":
            assert json.loads(out)["final_support"] == [2, 5]


@pytest.mark.parametrize("args, error", [
    (["omp", "run", "{A}", "{y}", "fixed:2"], "correlations A^T r^0 are not finite"),
    # A^T 1 stays finite, but the selected column's squared norm overflows
    (["omp", "run", "{A}", "{ones}", "fixed:2"], "Gram-Schmidt diagonal of column 1 is not finite"),
    (["ric", "{A}", "2"], "Gram matrix A^T A is not finite"),
], ids=["omp run", "omp run y=1", "ric"])
def test_overflow_is_one_line_on_stderr_and_leaves_no_output(tmp_path, args, error):
    """In a process of its own, so that numpy's floating-point warnings
    would reach stderr: the 1e154-scaled matrix gives the one error line,
    and the -o file opened before the computation is removed."""
    A = 1e154 * np.random.default_rng(0).standard_normal((6, 10))
    paths = {"A": tmp_path / "A.txt", "y": tmp_path / "y.txt", "ones": tmp_path / "ones.txt"}
    paths["A"].write_text(format_matrix_text(A))
    paths["y"].write_text(format_matrix_text((A[:, [1, 4]] @ [1.0, -2.0])[:, None]))
    paths["ones"].write_text(format_matrix_text(np.ones((6, 1))))
    out = tmp_path / "out.json"
    result = run_cli(*(arg.format(**paths) for arg in args), "-o", str(out))
    assert result.returncode == 3
    assert result.stderr == f"error: DegenerateMatrix: {error}\n"
    assert not out.exists()


def test_experiment_that_overflows_writes_nothing_to_stderr(tmp_path):
    # the CI overflow config: trials whose products overflow are error rows
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "Theorem2Sweep", "seed": 3, "margin": 1e307,
                                    "trials": 3}))
    result = run_cli("experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv"))
    assert result.returncode == 0 and result.stderr == ""
    assert "DimensionMismatch: vector contains non-finite entries" in (tmp_path / "out.csv").read_text()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_remove_output_removes_only_a_regular_file(tmp_path):
    """A failed command removes its output file, but never a device, a
    FIFO or a symlink given as the output path."""
    regular, fifo, link = tmp_path / "out.json", tmp_path / "fifo", tmp_path / "link"
    regular.write_text("{}")
    os.mkfifo(fifo)
    link.symlink_to(regular)
    for path in (fifo, link, tmp_path / "missing"):
        remove_output(str(path))
    assert fifo.exists() and link.is_symlink() and regular.exists()
    remove_output(str(regular))
    assert not regular.exists()


def test_experiment_that_fails_leaves_no_output(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "ComparisonTable", "deltas": [0.9]}))
    csv_path, summary = tmp_path / "out.csv", tmp_path / "summary.json"
    run_in_process(["experiment", str(cfg_file), "--csv", str(csv_path), "--summary", str(summary)],
                   code=3)
    assert capsys.readouterr().err == "error: OutOfSharpRegion: delta 0.9 not in (0, 1/sqrt(2))\n"
    assert not csv_path.exists() and not summary.exists()
    # a CSV that cannot be opened takes the summary opened before it along
    run_in_process(["experiment", str(cfg_file), "--csv", str(tmp_path / "missing" / "out.csv"),
                    "--summary", str(summary)], code=2)
    assert not summary.exists()


def test_experiment_command(tmp_path):
    cfg = {
        "experiment": "Example2",
        "output_csv": str(tmp_path / "out.csv"),
        "output_summary": str(tmp_path / "out.json"),
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    result = run_cli("experiment", str(cfg_file))
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)
    assert summary["failures"] == 0
    assert (tmp_path / "out.csv").exists()
    assert json.loads((tmp_path / "out.json").read_text()) == summary


# One JSON encoder: a document on stdout has the bytes of its -o file.
STDOUT_OR_FILE = [
    ["omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k2.txt"), "linf:0.01",
     "--sparsity", "2", "--exact-ric"],
    ["ric", str(DATA / "ric_gauss_32x16.txt"), "3", "--all-orders"],
    ["construct", "l2", "-K", "2", "--delta", "0.4"],
]


@pytest.mark.parametrize("args", STDOUT_OR_FILE, ids=lambda args: args[0])
def test_stdout_has_the_bytes_of_the_output_file(tmp_path, args):
    out = tmp_path / "out.json"
    to_stdout = run_cli(*args, text=False)
    to_file = run_cli(*args, "-o", str(out), text=False)
    assert to_stdout.returncode == 0 and to_file.returncode == 0, to_stdout.stderr
    assert to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()


def test_experiment_stdout_has_the_bytes_of_the_summary_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "Example3"}))
    summary = tmp_path / "summary.json"
    result = run_cli("experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv"),
                     "--summary", str(summary), text=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == summary.read_bytes()


# Every JSON producer writes orjson's indented layout of its own document,
# unless something in it sent it to json.dumps (see serialize.write_json).
PRODUCERS = [
    ["omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k3.txt"), "l2:0.01"],
    ["omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k3.txt"), "fixed:5"],
    ["omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k2.txt"), "linf:0.01",
     "--sparsity", "2", "--exact-ric"],
    ["ric", str(DATA / "ric_unit_24x30.txt"), "4"],
    ["ric", str(DATA / "ric_gauss_32x16.txt"), "6", "--all-orders"],
    ["construct", "l2", "-K", "2", "--delta", "0.4"],
    ["construct", "linf", "-K", "2", "--delta", "0.3"],
    ["construct", "example1", "--delta", "0.5"],
    ["construct", "example2", "--delta", "0.5"],
    ["construct", "example3", "--delta", "0.5"],
    ["experiment", "{config}", "--csv", "{csv}"],
]


@pytest.mark.parametrize("args", PRODUCERS, ids=lambda args: " ".join(args[:1] + args[-2:]))
def test_output_has_the_layout_of_orjson(tmp_path, capsys, args):
    import orjson

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "ComparisonTable"}))
    run_in_process([arg.format(config=config, csv=tmp_path / "out.csv") for arg in args])
    out = capsys.readouterr().out.encode()
    assert out == orjson.dumps(json.loads(out), option=orjson.OPT_INDENT_2) + b"\n"


def test_summary_echoing_a_seed_beyond_64_bits_is_written_by_json(tmp_path, capsys):
    """orjson refuses an int outside 64 bits, so json.dumps writes the
    summary, and it parses back to the seed."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "Theorem1Sweep", "seed": 2**70, "trials": 2}))
    run_in_process(["experiment", str(config), "--csv", str(tmp_path / "out.csv")])
    out = capsys.readouterr().out
    assert json.loads(out)["seed"] == 2**70
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


UNWRITABLE = [
    ["omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k3.txt"), "l2:0.01",
     "-o"],
    ["ric", str(DATA / "ric_gauss_32x16.txt"), "2", "-o"],
    ["construct", "example1", "--delta", "0.5", "-o"],
    ["construct", "example1", "--delta", "0.5", "--matrix-out"],
    ["experiment", "{config}", "--csv"],
    ["experiment", "{config}", "--csv", "{csv}", "--summary"],
]


@pytest.mark.parametrize("args", UNWRITABLE, ids=lambda args: " ".join(args[::len(args) - 1]))
def test_unwritable_output_path_exit_2(tmp_path, args):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "Example2"}))
    target = tmp_path / "missing" / "out"
    fields = {"config": config, "csv": tmp_path / "out.csv"}
    result = run_cli(*(arg.format(**fields) for arg in args), str(target))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args, owner, work", [
    (["ric", str(DATA / "ric_gauss_32x16.txt"), "4", "-o"], cli, "exact_ric"),
    (["omp", "run", str(DATA / "omp_gauss_40x16.txt"), str(DATA / "omp_y_k3.txt"), "l2:0.01",
      "-o"], cli, "run_omp"),
    (["construct", "l2", "--delta", "0.4", "-o"], cli, "_certification"),
    (["construct", "l2", "--delta", "0.4", "--matrix-out"], cli, "_certification"),
], ids=["ric -o", "omp run -o", "construct -o", "construct --matrix-out"])
def test_unwritable_output_fails_before_the_work(tmp_path, monkeypatch, args, owner, work):
    """Inputs are read and checked, the output is opened, and only then does
    the command compute.  A construction's instance is built as its check
    (the build does no search); its work is the certification."""
    calls = []

    def record(*a, **k):
        calls.append(a)

    monkeypatch.setattr(owner, work, record)
    run_in_process([*args, str(tmp_path / "missing" / "out.json")], code=2)
    assert calls == []


def test_experiment_unwritable_summary_writes_no_csv(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "Example2"}))
    csv_path = tmp_path / "out.csv"
    result = run_cli("experiment", str(config), "--csv", str(csv_path),
                     "--summary", str(tmp_path / "missing" / "s.json"))
    assert result.returncode == 2, result.stderr
    assert not csv_path.exists()


def test_experiment_missing_csv_path_exit_2(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "Example2"}))
    assert run_cli("experiment", str(cfg_file)).returncode == 2


def test_experiment_bad_json_exit_2(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("{not json")
    assert run_cli("experiment", str(cfg_file)).returncode == 2


def test_experiment_undecodable_config_exit_2(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_bytes(UNDECODABLE)
    result = run_cli("experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv"))
    assert result.returncode == 2, result.stderr
    assert str(cfg_file) in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("doc", [5, [{"experiment": "Example2"}], "Example2", None])
def test_experiment_config_not_an_object_exit_2(tmp_path, doc):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    result = run_cli("experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv"))
    assert result.returncode == 2
    assert "JSON object" in result.stderr


@pytest.mark.parametrize(
    "fields",
    [
        {"trials": "3"},
        {"k_values": 2},
        {"k_values": [1, "2"]},
        {"trials": 2.0},
        {"epsilons": [True]},
        {"deltas": "0.1"},
        {"output_csv": 1},
        {"experiment": None},
    ],
)
def test_experiment_config_wrong_field_type_exit_3(tmp_path, fields):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "Example2", **fields}))
    result = run_cli("experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv"))
    assert result.returncode == 3
    assert "ParameterOutOfRange" in result.stderr
    assert not (tmp_path / "out.csv").exists()


def test_experiment_config_missing_experiment_exit_3(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"seed": 1}))
    result = run_cli("experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv"))
    assert result.returncode == 3
    assert "ParameterOutOfRange" in result.stderr


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"experiment": "Theorem1Sweep", "seed": -1, "trials": 1}, "seed"),
        ({"experiment": "Lemma1Suite", "k_values": [9], "trials": 1}, "k_values"),
        ({"experiment": "Theorem2Sweep", "k_values": [1, 8], "trials": 1}, "k_values"),
        ({"experiment": "Theorem1Sweep", "m": 5, "n": 8, "trials": 1}, "n <= m"),
        ({"experiment": "ComparisonTable", "trials": 50}, "does not read config fields ['trials']"),
        ({"experiment": "Example1", "deltas": [0.3], "seed": 0, "margin": 1.1, "m": 3}, "['m']"),
        ({"experiment": "Theorem1Sweep", "deltas": [], "trials": 1}, "deltas must be non-empty"),
        ({"experiment": "ComparisonTable", "epsilons": [math.nan]}, "epsilons must be finite"),
        ({"experiment": "Theorem1Sweep", "margin": math.inf, "trials": 1}, "margin must be finite"),
        ({"experiment": "Theorem4Demo", "gamma_fractions": [math.nan]},
         "gamma_fractions must be finite"),
        ({"experiment": "Theorem2Sweep", "epsilons": [0.0], "trials": 1}, "epsilons must be > 0"),
        ({"experiment": "Theorem3Demo", "epsilons": [-1.0]}, "epsilons must be > 0"),
    ],
)
def test_experiment_config_out_of_range_exit_3(tmp_path, doc, message):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    result = run_cli("experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv"))
    assert result.returncode == 3
    assert "ParameterOutOfRange" in result.stderr and message in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("experiment", ["Theorem3Demo", "Theorem4Demo"])
def test_demo_on_sharp_boundary_is_an_error_row(tmp_path, capsys, experiment):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": experiment, "k_values": [1, 3],
                                    "deltas": [0.5]}))
    run_in_process(["experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv")])
    capsys.readouterr()
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["K"] for row in rows} == {"1", "3"}
    for row in rows:
        boundary = row["K"] == "3"
        assert (row["error"] == "OutOfSharpRegion: delta 0.5 not in (0, 1/sqrt(4))") == boundary


def test_comparison_table_degenerate_sharp_denominator_exit_3(tmp_path, capsys):
    # inside the sharp region at K = 1, yet 1 - sqrt(2) * delta rounds to 0.0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": "ComparisonTable", "k_values": [1],
                                    "deltas": [0.7071067811865475]}))
    run_in_process(["experiment", str(cfg_file), "--csv", str(tmp_path / "out.csv")], code=3)
    assert "error: DegenerateDenominator: " in capsys.readouterr().err


def test_help_screens():
    for args in ([], ["omp"], ["omp", "run"], ["ric"], ["construct"], ["experiment"]):
        result = run_cli(*args, "--help")
        assert result.returncode == 0
        assert "Usage" in result.stdout
