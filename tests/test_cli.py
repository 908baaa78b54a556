import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meanbounds import cli, harness, scalar
from meanbounds.quadrature import QuadratureError

SCAN_LOG_HEADER = (
    "a,b,v,geometric,split_geometric_mix,logarithmic,avg_arith_geom,arithmetic,"
    "slack_1,slack_2,slack_3,slack_4,pass"
)
SCAN_IDENTRIC_HEADER = (
    "a,b,v,geometric,geom_of_geom_arith,identric,split_arithmetic_mix,arithmetic,"
    "slack_1,slack_2,slack_3,slack_4,pass"
)
SUITE_KEYS = ["suite", "seed", "trials", "failures", "min_slacks", "wall_ms", "draws"]
CHAIN_KEYS = ["labels", "values", "slacks", "tol_used", "pass", "certified"]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI in a fresh interpreter, so nothing filters its warnings."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "meanbounds.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, check=False)


def reject_constant(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def scan_as_dict_rows(chain, *specs):
    """scan's JSON and CSV stdout as written from one dict per row: json.dumps and
    csv.DictWriter (bools as in JSON) over rows built from the library chain's columns."""
    grids = [np.linspace(float(lo), float(hi), int(n)) for lo, hi, n in
             (spec.split(":") for spec in specs)]
    a, b, v = (x.ravel() for x in np.meshgrid(*grids, indexing="ij"))
    rep = (scalar.logarithmic_chain if chain == "log" else scalar.identric_chain)(a, b, v)
    keys = ["a", "b", "v", *rep.labels, *(f"slack_{k}" for k in range(1, len(rep.labels))),
            "pass"]
    columns = (a, b, v, *rep.values, *rep.slacks, rep.passed)
    rows = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: json.dumps(x) if isinstance(x, bool) else x for k, x in row.items()}
                     for row in rows)
    return json.dumps({"rows": rows}, indent=2) + "\n", buf.getvalue()


@pytest.fixture
def pair_file(tmp_path):
    payload = {
        "A": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 4.0]]},
        "B": {"dim": 2, "rows": [[9.0, 0.0], [0.0, 1.0]]},
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestMeans:
    def test_eval_equal_args(self, capsys):
        code, payload, _ = run_json(
            capsys, "means", "eval", "--mean", "log", "--a", "1", "--b", "1", "--v", "0.3"
        )
        assert code == 0
        assert payload == {"value": 1.0}

    def test_eval_each_mean(self, capsys):
        for mean, expected in (
            ("arith", 1.25),
            ("geom", 2.0**0.25),
            ("log", 1.2088134576705436),
            ("identric", None),
        ):
            code, payload, _ = run_json(
                capsys, "means", "eval", "--mean", mean, "--a", "1", "--b", "2", "--v", "0.25"
            )
            assert code == 0
            if expected is not None:
                assert payload["value"] == pytest.approx(expected, rel=1e-12)

    def test_chain_keys_and_pass(self, capsys):
        code, payload, _ = run_json(
            capsys, "means", "chain", "--a", "1", "--b", "2", "--v", "0.25"
        )
        assert code == 0
        assert list(payload) == CHAIN_KEYS
        assert payload["pass"] is True

    def test_identric_chain_selectable(self, capsys):
        code, payload, _ = run_json(
            capsys, "means", "chain", "--chain", "identric", "--a", "1", "--b", "4",
            "--v", "0.5"
        )
        assert code == 0
        assert payload["labels"][2] == "identric"


class TestHH:
    def test_chain(self, capsys):
        code, payload, _ = run_json(
            capsys, "hh", "chain", "--f", "exp", "--a", "1", "--b", "2", "--v", "0.25"
        )
        assert code == 0
        assert list(payload) == CHAIN_KEYS
        assert len(payload["values"]) == 7

    def test_c_value(self, capsys):
        code, payload, _ = run_json(
            capsys, "hh", "c", "--f", "exp", "--a", "0", "--b", "1", "--v", "0.5"
        )
        assert code == 0
        assert payload["value"] == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_domain_violation_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "hh", "c", "--f", "neg-log", "--a", "-1", "--b", "1", "--v", "0.5"
        )
        assert code == 2
        assert "error" in err

    def test_quadrature_failure_emits_json_error(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise QuadratureError(1.0, 0.5, 1e-10)

        monkeypatch.setattr(cli.cvx, "chain_eval", boom)
        code, out, err = run_cli(
            capsys, "hh", "chain", "--f", "exp", "--a", "1", "--b", "2", "--v", "0.5"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "QuadratureError"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("sub", ["chain", "c"])
    def test_nonfinite_integrand_exits_1_with_json_error(self, capsys, sub):
        code, out, err = run_cli(
            capsys, "hh", sub, "--f", "exp", "--a", "-1000", "--b", "1000", "--v", "0.3"
        )
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "type": "NonFiniteIntegrandError",
                "message": "integrand returned non-finite values",
            }
        }
        assert err == ""


class TestNumericStderr:
    """No numpy warning reaches stderr; overflow is an error, not a verdict."""

    def test_wide_pair_log_mean_writes_one_stderr_line(self):
        proc = run_process("means", "eval", "--mean", "log", "--a", "1e-300", "--b", "1e300",
                           "--v", "0.3")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "meanbounds: error: log_mean_unit needs finite positive arguments"]

    def test_near_max_chain_exits_1_with_strict_json(self):
        proc = run_process("means", "chain", "--a", "1.6e308", "--b", "1.7e308", "--v", "0.5")
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout, parse_constant=reject_constant) == {
            "error": {"type": "FloatingPointError", "message": "chain terms are not finite"}}


class TestBounds:
    @pytest.mark.parametrize("sub", ["thm32", "thm33"])
    def test_thm_subcommands(self, capsys, sub):
        code, payload, _ = run_json(
            capsys, "bounds", sub, "--f", "exp", "--a", "1", "--b", "2", "--v", "0.25"
        )
        assert code == 0
        assert payload["pass"] is True
        assert len(payload["reports"]) == 2
        assert list(payload["reports"][0]) == [
            "name", "gap", "lower_bound", "upper_bound", "tol_used", "scale", "pass",
        ]

    @pytest.mark.parametrize("sub", ["cor31", "cor32", "cor33", "cor34"])
    def test_cor_subcommands(self, capsys, sub):
        code, payload, _ = run_json(
            capsys, "bounds", sub, "--a", "1", "--b", "2", "--v", "0.25"
        )
        assert code == 0
        assert payload["pass"] is True

    @pytest.mark.parametrize("sub", ["thm32", "thm33"])
    def test_overflow_exits_1_with_json_error(self, capsys, sub):
        code, out, err = run_cli(
            capsys, "bounds", sub, "--f", "exp", "--a", "1", "--b", "2000", "--v", "0.3"
        )
        assert code == 1
        assert json.loads(out) == {
            "error": {"type": "OverflowError", "message": "math range error"}
        }
        assert err == ""

    def test_subcommands_are_the_check_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", "--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(harness.BOUNDS_CHECKS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [("means", "chain", "--a", "1", "--b", "2", "--v", "0.3"),
                                      ("scan", "--a", "1:1:1", "--b", "2:2:1", "--v", "0.3:0.3:1")])
    def test_chains_come_from_the_check_table(self, capsys, monkeypatch, argv):
        monkeypatch.setitem(harness.CHECKS, "log_chain", harness.CHECKS["identric_chain"])
        code, payload, _ = run_json(capsys, *argv)
        report = payload["rows"][0] if "rows" in payload else dict.fromkeys(payload["labels"])
        assert code == 0 and "identric" in report and "logarithmic" not in report

    def test_orientation_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "cor31", "--a", "2", "--b", "1", "--v", "0.5")
        assert code == 2
        assert err.strip()


class TestOp:
    def test_chain(self, capsys, pair_file):
        code, payload, _ = run_json(capsys, "op", "chain", "--file", pair_file, "--v", "0.3")
        assert code == 0
        assert payload["pass"] is True
        assert len(payload["verdicts"]) == 4
        assert list(payload["verdicts"][0]) == ["margin", "eigenvalue", "tol_used", "holds"]

    def test_eval(self, capsys, pair_file):
        code, payload, _ = run_json(
            capsys, "op", "eval", "--file", pair_file, "--v", "0.5", "--mean", "geom"
        )
        assert code == 0
        assert payload["dim"] == 2
        assert payload["rows"][0][0] == pytest.approx(3.0, rel=1e-12)
        assert payload["rows"][1][1] == pytest.approx(2.0, rel=1e-12)

    def test_rejects_invalid_matrix(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"A": {"dim": 2, "rows": [[1.0, 2.0], [2.0, 1.0]]},
                        "B": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}}),
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "op", "chain", "--file", str(bad), "--v", "0.3")
        assert code == 2
        # the smallest eigenvalue (-1) as a plain float, not as np.float64(...)
        line = re.fullmatch(r"meanbounds: error: matrix is not positive definite "
                            r"\(min eig ([-+.\deE]+)\)\n", err)
        assert line and float(line[1]) == pytest.approx(-1.0, rel=1e-12)

    def test_rejects_pair_without_b(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"A": {"dim": 1, "rows": [[1.0]]}}), encoding="utf-8")
        code, out, err = run_cli(capsys, "op", "chain", "--file", str(path), "--v", "0.5")
        assert (code, out) == (2, "")
        assert err == 'meanbounds: error: matrix pair JSON needs keys "A" and "B"\n'

    def test_rejects_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "op", "chain", "--file", "/nonexistent.json",
                               "--v", "0.5")
        assert code == 2


class TestVerify:
    def test_scalar_byte_identical(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "scalar", "--seed", "42",
                                 "--trials", "100")
        code2, out2, _ = run_cli(capsys, "verify", "scalar", "--seed", "42",
                                 "--trials", "100")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_report_keys(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "scalar", "--seed", "1",
                                    "--trials", "5")
        assert code == 0
        assert list(payload) == SUITE_KEYS
        assert payload["wall_ms"] is None

    def test_timing_flag(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "scalar", "--seed", "1",
                                    "--trials", "5", "--timing")
        assert code == 0
        assert payload["wall_ms"] > 0.0

    def test_paper_numbers(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "paper-numbers")
        assert code == 0
        assert payload["min_slacks"]["diff_4_1"] == pytest.approx(4.35403, abs=5e-4)
        assert payload["min_slacks"]["diff_8_1"] == pytest.approx(-30.7996, abs=5e-3)

    def test_bounds_and_operator_small(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "bounds", "--trials", "10")
        assert code == 0 and payload["failures"] == []
        code, payload, _ = run_json(capsys, "verify", "operator", "--trials", "2")
        assert code == 0 and payload["failures"] == []

    def test_operator_tol_reaches_the_chains(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "operator", "--trials", "1",
                                    "--tol=-1")
        assert code == 1
        assert "op_chain" in {rec["check"] for rec in payload["failures"]}

    def test_forced_failure_exits_1(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "scalar", "--trials", "5",
                                    "--tol=-1e-3")
        assert code == 1
        assert payload["failures"]


class TestScan:
    def test_single_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--a", "1:1:1", "--b", "1:1:1", "--v", "0.5:0.5:1",
            "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SCAN_LOG_HEADER
        assert len(lines) == 2

    def test_identric_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--a", "1:1:1", "--b", "1:1:1", "--v", "0.5:0.5:1",
            "--chain", "identric", "--format", "csv"
        )
        assert code == 0
        assert out.strip().splitlines()[0] == SCAN_IDENTRIC_HEADER

    def test_default_grid_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 11 * 11 * 9 + 1

    def test_csv_json_round_trip(self, capsys):
        args = ("scan", "--a", "1:2:3", "--b", "1:3:2", "--v", "0.2:0.8:3")
        code, payload, _ = run_json(capsys, *args)
        assert code == 0
        code, out, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        parsed = list(csv.DictReader(io.StringIO(out)))
        assert len(parsed) == len(payload["rows"])
        for row_csv, row_json in zip(parsed, payload["rows"]):
            for key, val in row_json.items():
                if isinstance(val, bool):
                    assert row_csv[key] == ("true" if val else "false")
                else:
                    assert float(row_csv[key]) == val

    @pytest.mark.parametrize("chain", ["log", "identric"])
    @pytest.mark.parametrize("specs", [
        ("0.3:7.5:4", "0.1:9.2:8", "0.05:0.93:8"),  # the benchmark's 4 x 8 x 8 shape
        ("0.5:2.0:11", "0.5:2.0:11", "0.1:0.9:9"),  # the default grid
    ], ids=["bench-shaped", "default"])
    def test_stdout_is_the_dict_rows_rule(self, capsys, chain, specs):
        argv = ("scan", "--a", specs[0], "--b", specs[1], "--v", specs[2], "--chain", chain)
        json_out, csv_out = scan_as_dict_rows(chain, *specs)
        assert run_cli(capsys, *argv) == (0, json_out, "")
        assert run_cli(capsys, *argv, "--format", "csv") == (0, csv_out, "")

    def test_overflowing_point_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--a", "1:1.6e308:2", "--b", "1.7e308:1.7e308:1",
                                 "--v", "0.5:0.5:1")
        assert (code, err) == (1, "")
        assert json.loads(out, parse_constant=reject_constant)["error"]["type"] == \
            "FloatingPointError"

    def test_failing_row_exits_1(self, capsys):
        # subnormal point: the allowance tol * max|values| underflows to 0, so slack_3 = -5e-324
        # (L against (A+G)/2) fails; the output is the rows as ever, and the exit status says
        # that one failed
        point = ("--a", "1.38e-320:1.38e-320:1", "--b", "1.1947e-320:1.1947e-320:1",
                 "--v", "0.01639535620554342:0.01639535620554342:1")
        code, payload, _ = run_json(capsys, "scan", *point)
        assert code == 1
        assert [(row["slack_3"], row["pass"]) for row in payload["rows"]] == [(-5e-324, False)]
        code, out, _ = run_cli(capsys, "scan", *point, "--format", "csv")
        assert code == 1
        assert out.splitlines()[1].endswith(",false")

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--a", "2:1:3")
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("flag, spec", [("--a", "1:inf:2"), ("--a", "1:1e400:2"),
                                            ("--a", "nan:1:2"), ("--b", "-inf:1:3"),
                                            ("--v", "0:nan:3")])
    def test_non_finite_grid_bound_exits_2(self, capsys, flag, spec):
        # rejected as typed, not as the NaN that np.linspace makes of an infinite bound
        code, out, err = run_cli(capsys, "scan", f"{flag}={spec}")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"meanbounds: error: {flag} grid bounds must be finite: "
                                    f"{spec!r}"]

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--a", "1:2")
        assert code == 2

    @pytest.mark.parametrize("flag, spec", [("--a", "1:2:3.5"), ("--a", "x:2:3"),
                                            ("--b", "1:2"), ("--b", "1:2:3:4"),
                                            ("--v", "0:1:inf"), ("--v", "0:1:"),
                                            ("--a", "1:2:nan")])
    def test_malformed_spec_names_flag_and_spec(self, capsys, flag, spec):
        # one line in the grid-spec form, not Python's conversion text
        code, out, err = run_cli(capsys, "scan", f"{flag}={spec}")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"meanbounds: error: {flag} grid spec must be lo:hi:n "
                                    f"with n a whole number, got {spec!r}"]

    @pytest.mark.parametrize("count", ["1e1", "10.0", "1.0e+1"])
    def test_integral_count_may_be_written_as_a_float(self, capsys, count):
        code, out, _ = run_cli(capsys, "scan", "--a", f"1:2:{count}", "--b", "3:3:1")
        assert code == 0
        assert out == run_cli(capsys, "scan", "--a", "1:2:10", "--b", "3:3:1")[1]
        assert len(json.loads(out)["rows"]) == 10 * 9  # the default --v grid has 9 points

    # each grid fails to allocate at once: an axis of 1e17 or more points is 800 PB or more
    @pytest.mark.parametrize("specs, points", [
        (("--a", "1:2:1e18", "--b", "1:1:1", "--v", "0.5:0.5:1"), 10**18),
        (("--a", "1:1:1", "--b", "1:1:1", "--v", "0:1:1000000000000000000"), 10**18),
        (("--a", "1:2:1e17", "--b", "1:2:1e17"), 10**34 * 9),  # the default --v has 9 points
    ])
    def test_grid_too_large_to_allocate_is_bad_input(self, capsys, specs, points):
        code, out, err = run_cli(capsys, "scan", *specs)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"meanbounds: error: the scan grid of {points} points does not fit in memory"]


GRID = ("--a", "0.5:2:3", "--b", "1:4:3", "--v", "0.2:0.8:3")


class TestParserReuse:
    """``cli.main`` builds its parser once per process, so each call in a sequence must
    print and exit as the same call does alone, in a fresh interpreter."""

    SEQUENCES = (  # (argv, exit code) of the first call, then of the second
        ((("scan", "--chain", "identric"), 0), (("scan",), 0)),
        ((("scan", *GRID, "--format", "csv"), 0), (("scan", *GRID), 0)),
        ((("verify", "scalar", "--trials", "20", "--tol=-1"), 1),
         (("verify", "scalar", "--trials", "20"), 0)),
        ((("means", "eval", "--mean", "log", "--a", "1"), 2),
         (("means", "eval", "--mean", "log", "--a", "1", "--b", "2", "--v", "0.5"), 0)),
    )

    @pytest.mark.parametrize("sequence", SEQUENCES, ids=lambda seq: " then ".join(
        " ".join(argv[:2]) for argv, _ in seq))
    def test_each_call_as_alone(self, capsys, monkeypatch, sequence):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
        alone = [run_process(*argv) for argv, _ in sequence]
        assert [proc.returncode for proc in alone] == [code for _, code in sequence]
        cli._build_parser.cache_clear()
        for (argv, _), proc in zip(sequence, alone):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # an argparse error
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout,
                                                          proc.stderr)
        assert cli._build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        code = "import meanbounds.cli as c; raise SystemExit(c._build_parser.cache_info().misses)"
        src = str(Path(cli.__file__).resolve().parents[1])
        assert subprocess.run([sys.executable, "-c", code], check=False,
                              env={**os.environ, "PYTHONPATH": src}).returncode == 0


class TestParseErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["means", "frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["means", "eval", "--mean", "log", "--a", "1", "--b", "2"])
        assert exc.value.code == 2

    def test_negative_input_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "means", "eval", "--mean", "log", "--a", "-1", "--b", "2", "--v", "0.5"
        )
        assert code == 2
        assert err.strip().splitlines()[0].startswith("meanbounds: error:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ("means", "chain", "--a", "1", "--b", "2", "--v", "0.3"),
        ("hh", "chain", "--f", "exp", "--a", "1", "--b", "2", "--v", "0.3"),
        ("bounds", "thm32", "--f", "exp", "--a", "1", "--b", "2", "--v", "0.3"),
        ("op", "chain", "--v", "0.3"),
        ("verify", "scalar", "--trials", "4"),
        ("verify", "operator", "--trials", "4"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_non_finite_tol_exits_2(self, capsys, pair_file, argv, tol):
        # bad input, one diagnostic line; a negative --tol stays valid
        argv = (*argv, "--file", pair_file) if argv[0] == "op" else argv
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"meanbounds: error: --tol must be finite, got {tol}"]
        assert run_cli(capsys, *argv, "--tol=-1")[0] in (0, 1)

    def test_weight_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "means", "eval", "--mean", "log", "--a", "1", "--b", "2", "--v", "1.5"
        )
        assert code == 2
