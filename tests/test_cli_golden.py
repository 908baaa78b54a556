"""Golden CLI outputs: every subcommand in JSON and CSV, plus exit-2 inputs
and numeric failures (exit 1).

Each case's recorded stdout lives in ``fixtures/cli/<case>.out``; its exit
code and, for exit-2 cases, the ``meanbounds: error:`` line live in
``fixtures/cli/expected.json``.  Commands run with the fixture directory as
the working directory, so ``pair.json`` is the committed matrix pair and
``missing.json`` a file that does not exist.  ``fixtures/cli/help.json`` holds
the ``--help`` text of every parser at ``COLUMNS=80``, keyed by its command.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

from meanbounds import cli

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "cli"
BUILTINS = ("exp", "neg-log", "square", "quartic", "xlogx")
ABV = ("--a", "1", "--b", "2", "--v", "0.25")


def _success_cases():
    for fmt in ("json", "csv"):
        for mean in ("arith", "geom", "log", "identric"):
            yield f"means-eval-{mean}", ("means", "eval", "--mean", mean) + ABV, fmt
        for chain in ("log", "identric"):
            yield f"means-chain-{chain}", ("means", "chain", "--chain", chain,
                                           "--a", "1", "--b", "4", "--v", "0.3"), fmt
        for f in BUILTINS:
            yield f"hh-chain-{f}", ("hh", "chain", "--f", f) + ABV, fmt
            yield f"hh-c-{f}", ("hh", "c", "--f", f, "--a", "1", "--b", "4", "--v", "0.33"), fmt
            for thm in ("thm32", "thm33"):
                yield f"bounds-{thm}-{f}", ("bounds", thm, "--f", f) + ABV, fmt
        for cor in ("cor31", "cor32", "cor33", "cor34"):
            yield f"bounds-{cor}", ("bounds", cor) + ABV, fmt
        yield "op-chain", ("op", "chain", "--file", "pair.json", "--v", "0.3"), fmt
        for mean in ("arith", "geom", "log"):
            yield f"op-eval-{mean}", ("op", "eval", "--file", "pair.json", "--v", "0.4",
                                      "--mean", mean), fmt
        yield "verify-scalar", ("verify", "scalar", "--trials", "60"), fmt
        yield "verify-bounds", ("verify", "bounds", "--trials", "40"), fmt
        yield "verify-operator", ("verify", "operator", "--trials", "4"), fmt
        yield "verify-paper-numbers", ("verify", "paper-numbers"), fmt
        for chain in ("log", "identric"):
            yield f"scan-{chain}", ("scan", "--a", "0.5:2:3", "--b", "1:4:3", "--v",
                                    "0.2:0.8:3", "--chain", chain), fmt


ERROR_CASES = (
    ("err-means-eval-negative-a", ("means", "eval", "--mean", "log", "--a", "-1", "--b", "2",
                                   "--v", "0.5")),
    ("err-means-chain-negative-a", ("means", "chain", "--a", "1", "--b", "-2", "--v", "0.5")),
    ("err-means-eval-weight", ("means", "eval", "--mean", "geom", "--a", "1", "--b", "2",
                               "--v", "1.5")),
    ("err-hh-chain-weight", ("hh", "chain", "--f", "exp", "--a", "2", "--b", "1",
                             "--v", "-0.5")),
    ("err-hh-chain-reversed", ("hh", "chain", "--f", "exp", "--a", "2", "--b", "1",
                               "--v", "0.5")),
    ("err-hh-c-reversed", ("hh", "c", "--f", "square", "--a", "3", "--b", "1", "--v", "0.5")),
    ("err-thm33-reversed", ("bounds", "thm33", "--f", "exp", "--a", "2", "--b", "1",
                            "--v", "0.5")),
    ("err-cor31-reversed", ("bounds", "cor31", "--a", "2", "--b", "1", "--v", "0.5")),
    ("err-cor32-weight", ("bounds", "cor32", "--a", "2", "--b", "1", "--v", "2")),
    ("err-hh-c-xlogx-domain", ("hh", "c", "--f", "xlogx", "--a", "-2", "--b", "-1",
                               "--v", "0.5")),
    ("err-thm32-xlogx-domain", ("bounds", "thm32", "--f", "xlogx", "--a", "-2", "--b", "-1",
                                "--v", "0.5")),
    ("err-op-chain-missing-file", ("op", "chain", "--file", "missing.json", "--v", "0.5")),
    ("err-op-chain-dim-mismatch", ("op", "chain", "--file", "pair_mismatch.json",
                                   "--v", "0.5")),
    ("err-op-eval-dim-mismatch-endpoint", ("op", "eval", "--file", "pair_mismatch.json",
                                           "--v", "0", "--mean", "geom")),
    ("err-op-eval-weight", ("op", "eval", "--file", "pair.json", "--v", "1.5",
                            "--mean", "log")),
    ("err-verify-zero-trials", ("verify", "bounds", "--trials", "0")),
    ("err-scan-empty-grid", ("scan", "--a", "2:1:3")),
    ("err-scan-infinite-grid", ("scan", "--a", "1:inf:2")),
    ("err-scan-fractional-count", ("scan", "--a", "1:2:3.5")),
    ("err-scan-nonpositive-grid", ("scan", "--b", "0:1:3")),
    ("err-scan-weight-grid", ("scan", "--v", "0.5:1.5:3")),
    # numeric failures, exit 1: a chain term and a reverse's bound overflow
    ("err-means-chain-near-max", ("means", "chain", "--a", "1.6e308", "--b", "1.7e308",
                                  "--v", "0.5")),
    ("err-cor32-wide-pair", ("bounds", "cor32", "--a", "1e-300", "--b", "1e300",
                             "--v", "0.3")),
)


def all_cases():
    for name, argv, fmt in _success_cases():
        yield f"{name}.{fmt}", argv + (("--format", "csv") if fmt == "csv" else ())
    for name, argv in ERROR_CASES:
        yield name, argv


CASES = dict(all_cases())
EXPECTED = json.loads((FIXTURES / "expected.json").read_text(encoding="utf-8"))


def run_case(argv, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_case_has_a_fixture():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_matches_fixture(case, capsys, monkeypatch):
    code, out, err = run_case(CASES[case], capsys, monkeypatch)
    expected = EXPECTED[case]
    assert code == expected["code"]
    assert out == (FIXTURES / f"{case}.out").read_text(encoding="utf-8")
    if code == 2:
        assert err.splitlines()[0] == expected["error"]


def _commands(parser, path=()):
    """The command path of ``parser`` and of every subcommand under it, in tree order."""
    yield path
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, path + (name,))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="argparse titles its sections "
                    "differently before Python 3.11")
def test_help_matches_fixture(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to this width
    texts = {}
    for path in _commands(cli._build_parser()):
        with pytest.raises(SystemExit) as exc:
            cli.main([*path, "--help"])
        assert exc.value.code == 0
        texts[" ".join(("meanbounds", *path))] = capsys.readouterr().out
    assert texts == json.loads((FIXTURES / "help.json").read_text(encoding="utf-8"))
