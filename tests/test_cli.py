import csv
import io
import json
import math
import subprocess
import sys
import warnings
from argparse import Namespace
from pathlib import Path

import pytest

import homogeodesy
import homogeodesy.catalog as catalog
import homogeodesy.cli as cli
import homogeodesy.report as report
from homogeodesy.cli import NonFiniteOutput, main
from homogeodesy.closed_form import Mismatch
from homogeodesy.homogeneous import BracketKernel
from homogeodesy.pinching import MAX_MULTISTARTS, Table


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_import_leaves_scipy_optimize_unloaded():
    # the runtime uses no scipy (test_no_path_loads_scipy); scipy.optimize alone adds ~0.3 s
    src = str(Path(homogeodesy.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, sys.argv[1]); import homogeodesy; "
    code += "print(homogeodesy.__file__, 'scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    origin, loaded = proc.stdout.split()
    assert Path(origin).resolve() == Path(homogeodesy.__file__).resolve()
    assert loaded == "False"


def test_no_path_loads_scipy():
    # J and J' come from the modes of K (jacobi._modal), so no library path needs
    # scipy: the import, the builders, pinching, the closed forms, verify, a scan
    # with Newton rounds, fundamental_block and each CLI command
    src = str(Path(homogeodesy.__file__).resolve().parents[1])
    code = """
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
import homogeodesy as hg
from homogeodesy.cli import main
from homogeodesy.report import run_verify

def check(step):
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (step, loaded)

check("import")
space = hg.build_space("berger:m=1,s=0.5")
check("build_space")
hg.estimate_pinching(space, multistarts=4)
check("estimate_pinching")
hg.closed_form_times(hg.extract_cp_data(space, *hg.geodesic_pair(space, 0.7)), 6.0)
check("closed_form_times")
assert run_verify(hg.build_space("cpodd:m=1"))["pass"]
check("run_verify")
sys_ = hg.build_system(space, hg.geodesic_direction(space, 0.7))
events, stats = hg.scan_with_stats(sys_, 6.0)
assert events and stats.newton_rounds > 0
check("scan with Newton rounds")
hg.fundamental_block(sys_, 1.0)
check("fundamental_block")
commands = [
    ["list"],
    ["verify", "berger:m=1,s=0.5"],
    ["brackets", "berger:m=1,s=0.5"],
    ["conjugate", "b13", "--theta", "0.7", "--tmax", "6"],
    ["closedform", "b13", "--theta", "0.7", "--tmax", "6"],
    ["pinching", "berger:m=1,s=0.5", "--multistarts", "4"],
    ["reproduce", "conjB13"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", os.devnull]) == 0, argv
    check(argv[0])
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_list_command(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    doc = json.loads(out)
    assert "berger" in doc["families"]
    assert "conj" in doc["reproduce"]


def test_verify_b13(capsys):
    code, out = run_cli(capsys, "verify", "b13")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["results"]["bi-invariance"]["pass"] is True


def test_verify_round_notes_constant_curvature(capsys):
    code, out = run_cli(capsys, "verify", "berger:m=1,s=1")
    assert code == 0
    doc = json.loads(out)
    assert any("constant curvature" in note for note in doc["notes"])


def test_verify_space_without_split(capsys):
    code, out = run_cli(capsys, "verify", "round:n=3,kappa=1")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["results"]["lts"].get("skipped")
    assert doc["results"]["m-transitivity"]["transitive"] is True


def test_verify_reports_non_transitive_m0(capsys):
    code, out = run_cli(capsys, "verify", "spsphere:m=1,s=1", "--check", "m0-transitivity")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["m0-transitivity"]["transitive"] is False


def test_verify_m0_transitivity_without_split_fails(capsys):
    code, out = run_cli(capsys, "verify", "round:n=3", "--check", "m0-transitivity")
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["m0-transitivity"] == {
        "pass": False,
        "error": "round:n=3,kappa=1 has no m0/m1 split",
    }
    assert doc["failed"] == ["m0-transitivity"]


def test_conjugate_empty_table(capsys):
    code, out = run_cli(capsys, "conjugate", "b13", "--tmax", "0.1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "space"
    assert len(rows) == 1


def test_conjugate_b13_horizontal_tan_event(capsys):
    code, out = run_cli(
        capsys, "conjugate", "b13", "--theta", repr(math.pi / 2), "--tmax", "3.0"
    )
    assert code == 0
    doc = json.loads(out)
    tan_rows = [r for r in doc["rows"] if r["closed_form_match"] == "tan-family"]
    assert len(tan_rows) == 1
    assert abs(tan_rows[0]["t"] - 2.86909685) < 1e-6
    assert tan_rows[0]["isotropic_exists"] is False


def test_conjugate_rows_are_written_without_closed_forms(capsys):
    # x0 = 0.5 leaves the closed forms' hypotheses, so cp_data is None and no
    # row is matched, but the scan's rows are still written
    code, out = run_cli(capsys, "conjugate", "b13", "--theta", "0.7", "--x0", "0.5", "--tmax", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["cp_data"] is None
    assert doc["rows"] and all(row["closed_form_match"] == "" for row in doc["rows"])


def test_berger_vertical_rows(capsys):
    code, out = run_cli(
        capsys, "conjugate", "berger:m=2,s=0.5", "--theta", "0", "--tmax", "11"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["multiplicity"] for r in doc["rows"]] == [4, 4]
    assert all(r["isotropic_exists"] is False for r in doc["rows"])


def test_closedform_command(capsys):
    code, out = run_cli(
        capsys, "closedform", "w7:s=0.5", "--theta", repr(math.pi / 2), "--tmax", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["lambda"] - 1.0 / 3.0) < 1e-9
    assert abs(doc["rho"] - 2.0 / 3.0) < 1e-9
    assert any(t["family"] == "tan-family" for t in doc["times"])


def test_brackets_export(capsys):
    code, out = run_cli(capsys, "brackets", "berger:m=1,s=0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"]["dim"] == 4
    pairs = {(row["left"], row["right"]) for row in doc["table"]}
    assert ("d_s", "e_1") in pairs


def test_bad_descriptor_exit_code(capsys):
    # non-finite values and repeated keys are rejected while parsing, before
    # any builder runs
    for desc in ("flag:m=1", "cpodd:m=1,kappa=inf", "w7:s=inf", "berger:m=1,s=nan",
                 "berger:m=1,m=2", "spsphere:s=0.5,m=1,S=0.9"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_cli(capsys, "verify", desc)
        assert code == 3, desc


@pytest.mark.parametrize(
    "argv,key",
    [
        (["conjugate", "b13", "--x0", "nan"], "x0"),
        (["conjugate", "cpodd:m=1", "--phi", "nan"], "phi"),
        (["conjugate", "spsphere:m=1,s=0.5", "--phi1", "inf"], "phi1"),
        (["conjugate", "w7:s=0.5", "--x0", "inf"], "x0"),
        (["conjugate", "b13", "--x0", "1e300"], "x0"),  # finite, but its norm overflows
        (["closedform", "b13", "--x0", "nan"], "x0"),
    ],
)
def test_non_finite_aux_exit_code_names_the_key(capsys, argv, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--theta", "0.7", "--tmax", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ") and key in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("grid", [",", ""])
def test_pinching_refuses_empty_grid(capsys, grid):
    code = main(["pinching", "--family", "berger", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("--grid") and captured.err.count("\n") == 1


def test_oversized_scan_grid_exit_code(capsys):
    code, _ = run_cli(capsys, "conjugate", "b13", "--tmax", "1e12")
    assert code == 3


def test_scan_refuses_an_oversized_grid_through_the_cli(capsys):
    # the closed forms do not apply on spsphere at theta = 0.7, so the scan's
    # own refusal is the one that reaches the CLI
    code = main(["conjugate", "spsphere:m=1,s=1e-6", "--theta", "0.7", "--tmax", "2000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: t_max / step needs more than 1e+07 grid points\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "w7:s=1e-250"],  # the commutators' pairings overflow, so c holds NaN
        ["verify", "spsphere:m=1,s=1e-300"],
        ["conjugate", "w7:s=1e-300", "--theta", "0.7", "--tmax", "0.01"],
        ["verify", "w7:s=5e-324"],  # the Gram itself overflows
    ],
)
def test_algebra_that_overflows_is_a_validation_error(capsys, argv):
    # refused while the algebra is assembled, on one line and with no numpy
    # warning; berger:m=1,s=1e-300 assembles finite and still verifies
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
        assert main(["verify", "berger:m=1,s=1e-300"]) == 0
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("validation error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("desc", ["berger:m=1,s=1e-310", "spsphere:m=1,s=1e-310"])
def test_subnormal_fiber_scale_is_a_validation_error(capsys, desc):
    # (s - 1)/s overflows at a subnormal s, and times a zero entry it would
    # give NaN: refused where it arises, on one line naming s, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", desc])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "validation error: fiber factor (s - 1)/s overflows at s = 1e-310\n"


@pytest.mark.parametrize("command", ["conjugate", "closedform"])
def test_family_without_canonical_directions_is_refused_before_building(
    capsys, monkeypatch, command
):
    # round has no canonical vertical/horizontal directions: geodesic_pair's
    # refusals, a bad theta first, come before the (costly) build, and name
    # the space as the built one does
    def builder(**params):
        raise AssertionError(f"round was built with {params}")

    monkeypatch.setitem(catalog._FAMILIES, "round", (builder, catalog._FAMILIES["round"][1]))
    no_directions = "error: no canonical vertical/horizontal directions for "
    for argv, err in (
        (["round:n=12"], no_directions + "round:n=12,kappa=1"),
        (
            ["round:n=11,kappa=2.5", "--theta", "0.3", "--phi", "1"],
            no_directions + "round:n=11,kappa=2.5",
        ),
        (["round:n=10", "--theta", "5"], "error: theta must lie in [0, pi/2]"),
    ):
        code = main([command, *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", err + "\n")


@pytest.mark.parametrize(
    "desc,theta,tmax",
    [
        ("berger:m=1,s=0.5", "0", "inf"),  # 2p*pi family
        ("berger:m=1,s=0.5", "0.7", "inf"),  # tan family
        ("berger:m=1,s=0.5", "0.7", "nan"),
        ("b13", repr(math.pi / 2), "1e12"),  # ~1e12 tan roots
    ],
)
def test_closedform_refuses_unbounded_tmax(capsys, desc, theta, tmax):
    code = main(["closedform", desc, "--theta", theta, "--tmax", tmax])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: t_max")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_bad_arguments_exit_code(capsys):
    assert main(["reproduce", "nonsense"]) == 3
    assert main(["pinching", "cpodd:m=1", "--multistarts", "0"]) == 3
    assert main(["reproduce", "pinching-table", "--multistarts", "0"]) == 3
    # converged needs three starts that agree on each extreme
    assert main(["pinching", "cpodd:m=1", "--multistarts", "2"]) == 3
    assert "multistarts must be >= 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["pinching", "cpodd:m=1"],
        ["pinching", "--family", "spsphere", "--grid", "0.5"],
        ["reproduce", "pinching-table"],
    ],
)
def test_multistarts_above_the_bound_exit_3_before_any_kernel_call(monkeypatch, capsys, argv):
    def kernel_must_not_run(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(BracketKernel, "_evaluate", kernel_must_not_run)
    assert main(argv + ["--multistarts", str(MAX_MULTISTARTS + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: multistarts must be <= {MAX_MULTISTARTS}\n"


@pytest.mark.parametrize("command", [["pinching", "cpodd:m=1"], ["verify", "b13"]])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_exit_code_names_the_flag(capsys, command, seed):
    assert main([*command, "--seed", seed]) == 3
    assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("desc,theta", [("b13", "1e-4")])
def test_unresolved_closed_form_times_exit_1(capsys, monkeypatch, desc, theta):
    # near theta = 0 on b13 a tan-family time falls within 1e-6 of a
    # 2p*pi-family time.  The closed forms come before the scan, so the input
    # fails without scanning.  Far tan roots, once refused by a residual test,
    # are certified: see test_far_tan_roots_are_certified.
    def no_scan(*args):
        raise AssertionError("the scan ran before the closed forms")

    monkeypatch.setattr(report, "conjugate_events", no_scan)
    code = main(["conjugate", desc, "--theta", theta])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("validation error: tan-family")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_non_finite_output_is_refused(capsys, monkeypatch):
    doc = {"space": "b13", "rows": Table(["t"], [(1.5,), (math.nan,)])}
    for fmt in ("json", "csv"):
        with pytest.raises(NonFiniteOutput, match=r"rows\[1\]\.t"):
            cli._emit(doc, Namespace(format=fmt, out=None), rows_key="rows")
    assert capsys.readouterr().out == ""

    monkeypatch.setattr(cli, "conjugate_table", lambda *args: doc)
    code = main(["conjugate", "b13"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "rows[1].t" in captured.err and "nan" in captured.err


def test_deterministic_json_output(capsys, tmp_path):
    argv = ["closedform", "berger:m=2,s=0.5", "--theta", "0.5", "--tmax", "6"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    strip = lambda text: "\n".join(
        line for line in text.splitlines() if "generated_at" not in line
    )
    assert strip(out1) == strip(out2)


def test_out_file_written(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "verify", "w7:s=0.5", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["pass"] is True


def test_pinching_cli_single_space(capsys):
    code, out = run_cli(
        capsys, "pinching", "round:n=3,kappa=1", "--multistarts", "32", "--seed", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["delta"] - 1.0) < 1e-6


def test_pinching_cli_requires_space_or_family(capsys):
    assert main(["pinching"]) == 3


def test_pinching_cli_refuses_space_and_family_together(capsys):
    code = main(["pinching", "b13", "--family", "berger", "--grid", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "not both" in captured.err and "b13" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_pinching_curve_has_no_kappa_option(capsys):
    # delta is scale-invariant, so a kappa knob would change no row
    assert main(["pinching", "--family", "berger", "--grid", "0.5", "--kappa", "2"]) == 3
    assert "unrecognized arguments: --kappa" in capsys.readouterr().err


def test_reproduce_has_no_tmax_factor_option(capsys):
    # every sweep cross-validates to t_max = 7 / sqrt(lambda + rho)
    assert main(["reproduce", "conj", "--tmax-factor", "5"]) == 3
    assert "unrecognized arguments: --tmax-factor" in capsys.readouterr().err


def test_pinching_table_rel_error_follows_the_printed_columns(tmp_path):
    # a drift of delta below the 12 printed digits must not move rel_error
    target = tmp_path / "table.json"
    assert main(["reproduce", "pinching-table", "--out", str(target)]) == 0
    rows = [r for r in json.loads(target.read_text())["cells"] if r["delta_formula"] is not None]
    assert len(rows) == 16
    for row in rows:
        measured, formula = row["delta_measured"], row["delta_formula"]
        assert row["rel_error"] == float(f"{abs(measured - formula) / formula:.12g}")


@pytest.mark.parametrize(
    "argv",
    [
        ["list"],
        ["verify", "b13"],
        ["brackets", "b13"],
        ["closedform", "b13", "--theta", "0.7", "--tmax", "3"],
        ["reproduce", "conj"],
    ],
)
def test_format_is_offered_only_where_rows_are_printed(capsys, argv):
    # only conjugate and pinching --family print tables; elsewhere csv was ignored
    assert main([*argv, "--format", "csv"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --format csv" in captured.err


def test_pinching_cli_refuses_csv_for_a_single_space(capsys):
    code = main(["pinching", "b13", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "--format csv" in captured.err and "--family" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_pinching_curve_csv_prints_a_header_and_one_row_per_s(capsys):
    code, out = run_cli(
        capsys, "pinching", "--family", "spsphere", "--m", "1", "--grid", "0.5,1",
        "--multistarts", "8", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s", "delta_measured", "delta_formula", "rel_error", "converged"]
    assert [float(row[0]) for row in rows[1:]] == [0.5, 1.0]


@pytest.mark.parametrize(
    "argv,source",
    [
        (["conjugate", "b13", "--theta", "0.7", "--tmax", "3"], "conjugate_table"),
        (["conjugate", "b13", "--tmax", "0.1"], "conjugate_table"),  # no rows
        (
            ["pinching", "--family", "spsphere", "--grid", "0.5", "--multistarts", "8"],
            "pinching_curve",
        ),
    ],
)
def test_csv_header_is_the_row_documents_keys(capsys, monkeypatch, argv, source):
    # a column added to the library's rows reaches the CSV header, in order
    tables = []

    def with_extra_column(table):
        table = Table((*table.columns, "extra"), ((*row.values(), 0.5) for row in table))
        tables.append(table)
        return table

    make = getattr(cli, source)

    def patched(*args, **kwargs):
        doc = make(*args, **kwargs)
        if source == "pinching_curve":
            return with_extra_column(doc)
        return doc | {"rows": with_extra_column(doc["rows"])}

    monkeypatch.setattr(cli, source, patched)
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == list(tables[-1].columns) and header[-1] == "extra"
    assert [list(row) for row in tables[-1]] == [header] * len(rows)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert [sorted(row) for row in json.loads(out)["rows"]] == [sorted(header)] * len(rows)


def test_pinching_family_without_grid_exit_code(capsys):
    assert main(["pinching", "--family", "berger"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "--grid is required with --family\n"


def test_failed_verify_exit_code(capsys, monkeypatch):
    failed = {"pass": False, "failed": ["jacobi"], "checks": {}}
    monkeypatch.setattr(cli, "run_verify", lambda *args, **kwargs: failed)
    code = main(["verify", "b13"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["pass"] is False
    assert captured.err == "verification failed: jacobi\n"


def test_failed_reproduce_exit_code(capsys, monkeypatch):
    failed = {"theorem": "conj", "cells": [], "pass": False}
    monkeypatch.setattr(cli, "reproduce", lambda *args, **kwargs: failed)
    code = main(["reproduce", "conj"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["pass"] is False
    assert captured.err == "reproduction of conj failed\n"


def _mismatch(*args):
    raise Mismatch("closed-form time 1.5 has no event")


EXPECTED_LAMBDA_RHO = report.expected_lambda_rho
HORIZONTAL = math.pi / 2


def _off_lambda(space, theta):
    lam, rho = EXPECTED_LAMBDA_RHO(space, theta)
    return 2.0 * lam, rho


@pytest.mark.parametrize(
    "sweep,name,value,failing,error",
    [
        ("conjB13", "cross_validate", _mismatch, None, "closed-form time 1.5 has no event"),
        ("cimp1", "cross_validate", _mismatch, None, "closed-form time 1.5 has no event"),
        ("conjB13", "expected_lambda_rho", _off_lambda, None, "lambda/rho relative error 5.00e-01"),
        (
            "conjB13",
            "symmetric_conjugate_times",
            lambda ref, t_max: [],
            HORIZONTAL,
            "isotropic horizontal time missing from base-space times",
        ),
        (
            "conjB13",
            "FAMILY_TAN",
            "two-pi-family",
            HORIZONTAL,
            "tan-family event at t = 4.44288293816 is isotropic on a horizontal geodesic",
        ),
    ],
)
def test_failing_sweep_cells(capsys, monkeypatch, sweep, name, value, failing, error):
    # `failing` is the one theta whose cells fail, None meaning every cell.
    # Relabelling the two-pi family as the tan family makes b13's horizontal
    # two-pi event, which is isotropic, read as an isotropic tan-family event.
    monkeypatch.setattr(report, name, value)
    doc = report.reproduce(sweep)
    assert doc["pass"] is False
    for cell in doc["cells"]:
        if failing is None or cell["theta"] == failing:
            assert cell["pass"] is False and cell["error"] == error
        else:
            assert cell["pass"] is True and "error" not in cell
    code = main(["reproduce", sweep])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["pass"] is False
    assert captured.err == f"reproduction of {sweep} failed\n"


def test_mismatch_exit_code(capsys, monkeypatch):
    def mismatch(*args):
        raise Mismatch("closed-form time 1.5 has no event")

    monkeypatch.setattr(cli, "conjugate_table", mismatch)
    code = main(["conjugate", "b13"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "mismatch: closed-form time 1.5 has no event\n"


@pytest.mark.parametrize("argv", [["--help"], ["conjugate", "--help"]])
def test_help_exits_0_with_usage_on_stdout(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: homogeodesy") and captured.err == ""


def test_unparsable_option_value_exit_code(capsys):
    assert main(["conjugate", "b13", "--theta", "abc"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: homogeodesy conjugate")
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["homogeodesy conjugate: error: argument --theta: invalid float value: 'abc'"]
    assert "Traceback" not in captured.err


def test_unknown_check_is_refused_before_any_check_runs(monkeypatch):
    def ran(space, seed):
        raise AssertionError("a check ran")

    for name, (_, when) in report.CHECKS.items():
        monkeypatch.setitem(report.CHECKS, name, (ran, when))
    with pytest.raises(ValueError, match="'nonsense'"):
        report.run_verify(homogeodesy.build_space("b13"), ["antisymmetry", "nonsense"])
