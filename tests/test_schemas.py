"""Report schemas: each JSON object is its report's fields, each CLI --tol
default is the library's, and README's min-slack key lists match the suites."""

import dataclasses
import inspect
import json
import pathlib
import re

import numpy as np
import pytest

from meanbounds import bounds, cli, convex, harness, operators, scalar

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _reports():
    spd = operators.SpdMatrix(np.diag([1.0, 2.0]))
    suite = harness.run_scalar_suite(harness.SuiteConfig(seed=3, trials=4))
    return (
        scalar.logarithmic_chain(1.0, 2.0, 0.3),
        bounds.logmean_diff_reverse(1.0, 2.0, 0.3)[0],
        operators.loewner_leq(spd, spd),
        operators.operator_chain(spd, spd, 0.3).verdicts[0],
        suite,
    )


@pytest.mark.parametrize("report", _reports(), ids=lambda r: type(r).__name__)
def test_to_dict_is_the_fields_in_declaration_order(report):
    names = [f.name for f in dataclasses.fields(report)]
    expected = {
        ("pass" if name == "passed" else name): (
            list(value) if isinstance(value := getattr(report, name), tuple) else value
        )
        for name in names
    }
    timing = {"include_timing": True} if isinstance(report, harness.SuiteReport) else {}
    out = report.to_dict(**timing)
    assert out == expected
    assert list(out) == list(expected)


@pytest.mark.parametrize("argv, producer", [
    pytest.param(["means", "chain"], scalar.logarithmic_chain, id="means-chain-log"),
    pytest.param(["means", "chain", "--chain", "identric"], scalar.identric_chain,
                 id="means-chain-identric"),
    pytest.param(["hh", "chain", "--f", "exp"], convex.chain_eval, id="hh-chain"),
    pytest.param(["bounds", "cor31"], bounds.logmean_diff_reverse, id="bounds-cor31"),
    pytest.param(["bounds", "thm32", "--f", "exp"], bounds.deriv_gap_bounds,
                 id="bounds-thm32"),
])
def test_cli_tol_default_is_the_library_default(capsys, argv, producer):
    assert cli.main([*argv, "--a", "1", "--b", "2", "--v", "0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    tol_used = payload["reports"][0]["tol_used"] if "reports" in payload else payload["tol_used"]
    assert tol_used == inspect.signature(producer).parameters["tol"].default


def test_op_chain_tol_default_is_the_library_default(capsys, tmp_path):
    pair = {"A": {"dim": 2, "rows": [[1.0, 0.0], [0.0, 4.0]]},
            "B": {"dim": 2, "rows": [[9.0, 0.0], [0.0, 1.0]]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair), encoding="utf-8")
    assert cli.main(["op", "chain", "--file", str(path), "--v", "0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    default = inspect.signature(operators.operator_chain).parameters["tol"].default
    assert payload["tol_used"] == default


def _readme_key_prefixes() -> dict:
    """Suite name -> the key prefixes README's min-slack key sentence names."""
    text = README.read_text(encoding="utf-8")
    start = text.index("`verify scalar` min-slack keys")
    sentence = text[start:text.index("\n\n", start)]
    parts = re.split(r"`verify (scalar|bounds|operator)`", sentence)
    return {
        suite: {tok.split(".")[0] for tok in re.findall(r"`([^`]+)`", body)
                if not tok.startswith(".")}
        for suite, body in zip(parts[1::2], parts[2::2])
    }


@pytest.mark.parametrize("suite, runner", [
    ("scalar", harness.run_scalar_suite),
    ("bounds", harness.run_bounds_suite),
    ("operator", harness.run_operator_suite),
])
def test_readme_key_lists_match_the_suites(suite, runner):
    report = runner(harness.SuiteConfig(seed=5, trials=5, dims=(2,)))
    prefixes = {key.split(".")[0] for key in report.min_slacks}
    assert prefixes == _readme_key_prefixes()[suite]
