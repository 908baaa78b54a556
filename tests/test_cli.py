import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from meanbounds import cli, harness
from meanbounds.quadrature import QuadratureError

SCAN_LOG_HEADER = (
    "a,b,v,geometric,split_geometric_mix,logarithmic,avg_arith_geom,arithmetic,"
    "slack_1,slack_2,slack_3,slack_4,pass"
)
SCAN_IDENTRIC_HEADER = (
    "a,b,v,geometric,geom_of_geom_arith,identric,split_arithmetic_mix,arithmetic,"
    "slack_1,slack_2,slack_3,slack_4,pass"
)
SUITE_KEYS = ["suite", "seed", "trials", "failures", "min_slacks", "wall_ms"]
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
        code, _, err = run_cli(capsys, "op", "chain", "--file", str(bad), "--v", "0.5")
        assert code == 2
        assert "positive definite" in err

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

    def test_overflowing_point_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--a", "1:1.6e308:2", "--b", "1.7e308:1.7e308:1",
                                 "--v", "0.5:0.5:1")
        assert (code, err) == (1, "")
        assert json.loads(out, parse_constant=reject_constant)["error"]["type"] == \
            "FloatingPointError"

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--a", "2:1:3")
        assert code == 2
        assert "empty" in err

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--a", "1:2")
        assert code == 2


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

    def test_weight_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "means", "eval", "--mean", "log", "--a", "1", "--b", "2", "--v", "1.5"
        )
        assert code == 2
