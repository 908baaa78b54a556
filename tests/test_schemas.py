"""Report schemas: each JSON object is its report's fields, each CLI --tol
default is the library's, README's min-slack key lists match the suites, and
the JSON writer is ``json.dumps(value, indent=2)`` byte for byte, with a ``Table`` written as
its dict rows, in JSON and in the CLI's CSV."""

import csv
import dataclasses
import inspect
import io
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meanbounds import bounds, cli, convex, harness, operators, reports, scalar

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


# every value json writes: scalars (NaN and infinities among the floats, any characters in
# the strings), and lists, tuples and dicts of them with str, int, bool, float or None keys
JSON_KEYS = st.text() | st.integers() | st.booleans() | st.floats() | st.none()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda items: st.lists(items) | st.lists(items).map(tuple)
    | st.dictionaries(JSON_KEYS, items),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(value=JSON_VALUES)
@example(value={"rows": [{"a": 0.5, "pass": True}, {}], "e": [[], {}, ()], "n": None})
@example(value=[float("nan"), float("inf"), -float("inf"), {"x": [-0.0, 5e-324, 1e308]}])
@example(value={"\u00e9\u2028\U0001f600": "\x00\x1f\n\t\"\\", "\x7f": ["\ud7ff"]})
@example(value={1: [2], False: {}, 2.5: [], float("nan"): {float("-inf"): 0}, None: "n"})
@example(value=((1, (2, ())), [{}], "x"))
# lists of dicts, written row by row: rows in another key order, keys 1 / True / 1.0, which
# compare equal
@example(value=[{"a": 1, "b": 2}, {"b": 3, "a": 4}, {"a": 5, "b": 6}])
@example(value=[{1: "int"}, {True: "bool"}, {1.0: "float"}])
@example(value=[{"1": 0}, {1: 1}, {"true": 2}, {True: 3}])
@example(value={"%s%%": "%d %s", "rows": [{"%": "%%", "%(x)s": "%"}, {"%": "%s", "%(x)s": "%%%"}]})
@example(value=[{"a\nb": "x\ny", ", ": ", "}, {"a\nb": ",\n", ", ": "\n\n"}])
@example(value=[{"a": 1, "b": 2}, {"a": 3, "b": [4]}, {"a": 5, "b": {"c": 6}}])
@example(value=[{"a": 1}, {"a": []}, {"a": {}}])
@example(value=[{}, {}])
@example(value=[{"a": 1}, ["a"], ("a",)])
@example(value=({"a": 1.5}, {"a": None}))
@example(value=[{"a": 1}])
@example(value=[1])
def test_to_json_is_json_dumps_indent_2(value):
    assert reports.to_json(value) == json.dumps(value, indent=2)


def dict_rows(keys, columns):
    return [dict(zip(keys, row)) for row in zip(*columns)]


def dict_writer_csv(keys, rows):
    # the CLI's CSV rule for rows of dicts: csv.DictWriter, bools as in JSON
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keys, lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: json.dumps(x) if isinstance(x, bool) else x for k, x in row.items()}
                     for row in rows)
    return buf.getvalue()


CELLS = (st.floats() | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]) | st.integers()
         | st.booleans() | st.none() | st.text() | st.sampled_from(['"', "%s", "a,b\n", "\\"]))
CELL_KEYS = st.text() | st.sampled_from(["%", "%s", "%%", '"', '"%(x)s"', "a,b"])


@st.composite
def tables(draw):
    keys = draw(st.lists(CELL_KEYS, unique=True, max_size=6))
    n = draw(st.integers(0, 5))
    return keys, [draw(st.lists(CELLS, min_size=n, max_size=n)) for _ in keys]


@settings(max_examples=200, deadline=None)
@given(table=tables())
@example(table=(["a", "pass"], [[], []]))  # no rows: []
@example(table=([], []))
@example(table=(["%", '"'], [[-0.0, 5e-324, 1.7976931348623157e308], [True, False, None]]))
def test_table_is_written_as_its_dict_rows(table):
    keys, columns = table
    rows = dict_rows(keys, columns)
    value = {"rows": reports.Table(tuple(keys), columns)}
    assert reports.to_json(value) == json.dumps({"rows": rows}, indent=2)
    nested = [{"x": value["rows"]}, value["rows"]]  # the same rule at other indents
    assert reports.to_json(nested) == json.dumps([{"x": rows}, rows], indent=2)
    assert cli._to_csv(value) == dict_writer_csv(keys, rows)


def test_to_json_tables_of_special_floats():
    # 256-row tables, one order of str keys, as scan writes them: a Table and its dict rows
    rng = np.random.default_rng(2026)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308, -1e308])
    keys = ("a", "b", "%", "pass", "slack_1", "")
    for _ in range(4):
        normal = rng.standard_normal((6, 256)) * 10.0 ** rng.integers(-300, 300, (6, 256))
        columns = np.where(rng.random((6, 256)) < 0.5, rng.choice(specials, (6, 256)),
                           normal).tolist()
        columns[3] = (rng.random(256) < 0.5).tolist()
        rows = dict_rows(keys, columns)
        expected = json.dumps({"rows": rows, "n": len(rows)}, indent=2)
        assert reports.to_json({"rows": rows, "n": len(rows)}) == expected
        assert reports.to_json({"rows": reports.Table(keys, columns), "n": len(rows)}) == expected


@pytest.mark.parametrize("value", [
    object(),
    [{"a": 1.0, "b": 2}, {"a": object(), "b": 3}],
    {"x": [1, {"y": (2, object())}]},
    [[1], {"k": {1, 2}}],
], ids=["alone", "in-a-table", "nested", "set"])
def test_to_json_unserializable_leaf_raises_as_json_dumps(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError, match=f"^{re.escape(str(expected.value))}$"):
        reports.to_json(value)
