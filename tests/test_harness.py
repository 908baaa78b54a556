import dataclasses
import functools
import gc
import itertools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from meanbounds import cli, harness
from meanbounds import convex as cvx
from meanbounds import operators as ops
from meanbounds.quadrature import QuadratureError
from splitmix64 import SplitMix64


def small_cfg(**overrides):
    base = dict(seed=42, trials=60, functions=("exp", "neg-log", "square"))
    base.update(overrides)
    return harness.SuiteConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = harness.SuiteConfig()
        assert cfg.trials == 10_000

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            harness.SuiteConfig(trials=0)

    def test_rejects_bad_v_range(self):
        # "ab" raised TypeError and (0.5,) a ValueError from tuple unpacking
        for rng in ((0.0, 0.5), (0.2, 1.0), "ab", (0.5,), (0.2, 0.3, 0.4), 0.5, ("a", "b"),
                    [[0.2], [0.3, 0.4]]):
            with pytest.raises(ValueError, match=r"^v_range must sit inside \(0, 1\)"):
                harness.SuiteConfig(v_range=rng)
        assert harness.SuiteConfig(v_range=[0.2, 0.3]).v_range == [0.2, 0.3]

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            harness.SuiteConfig(a_range=(-1.0, 2.0))

    def test_rejects_a_range_that_is_not_a_pair(self):
        # (1, 2, 3) was taken as (1, 2), and the suites then failed to unpack it
        for key, rng in (("a_range", (1.0, 2.0, 3.0)), ("b_range", (1.0,)), ("a_range", 2.0),
                         ("b_range", [[1.0, 2.0], [3.0, 4.0]])):
            with pytest.raises(ValueError, match=f"^{key} must be a nonempty positive interval"):
                harness.SuiteConfig(**{key: rng})
        assert harness.SuiteConfig(a_range=[1, 2]).a_range == [1, 2]

    def test_rejects_unknown_function(self):
        with pytest.raises(KeyError):
            harness.SuiteConfig(functions=("cube",))

    def test_rejects_a_bare_string_of_functions(self):
        # "exp" was read one character at a time: KeyError for the builtin 'e'
        with pytest.raises(ValueError, match="^functions must be a sequence of names"):
            harness.SuiteConfig(functions="exp")

    def test_rejects_empty_functions(self):
        with pytest.raises(ValueError, match="functions must be nonempty"):
            harness.SuiteConfig(functions=())

    def test_rejects_bad_seed(self):
        # out of range, or not an integer: 42.5 would run seed 42's streams, True is a bool
        for seed in (-1, 2**64, 42.5, True, float("nan"), float("inf"), "42"):
            with pytest.raises(ValueError, match="seed must be an integer"):
                harness.SuiteConfig(seed=seed)

    def test_rejects_non_finite_tolerances(self):
        # a NaN tolerance made every verdict a numeric failure; a negative one fails them
        for key in ("tol", "op_tol"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ValueError, match="tol and op_tol must be finite"):
                    harness.SuiteConfig(**{key: value})
        cfg = harness.SuiteConfig(tol=-1.0, op_tol=-1e-3)
        assert (cfg.tol, cfg.op_tol) == (-1.0, -1e-3)

    def test_rejects_non_integer_counts(self):
        # at run time 2.5 and 10.0 would raise TypeError in range() and True would run one trial
        for trials in (2.5, 10.0, True, float("nan"), "10"):
            with pytest.raises(ValueError, match="trials takes integers only"):
                harness.SuiteConfig(trials=trials)
        for dims in ((2.5,), (3, 2.0), (True,), ("2",)):
            with pytest.raises(ValueError, match="dims takes integers only"):
                harness.SuiteConfig(dims=dims)
        for dims in ((0,), (2, -1), ()):
            with pytest.raises(ValueError, match="dims must be"):
                harness.SuiteConfig(dims=dims)

    def test_integer_counts_are_stored_as_int(self):
        cfg = harness.SuiteConfig(seed=7, trials=np.int64(3), dims=[np.uint8(2), 3])
        assert type(cfg.trials) is int and cfg.dims == (2, 3)
        assert all(type(d) is int for d in cfg.dims)
        assert json.loads(harness.run_operator_suite(cfg).to_json())["trials"] == 6

    def test_integral_seed_is_stored_as_int(self):
        cfg = harness.SuiteConfig(seed=42.0, trials=40)
        assert type(cfg.seed) is int and cfg.seed == 42
        assert type(harness.SuiteConfig(seed=np.uint64(2**64 - 1)).seed) is int
        rep = harness.run_scalar_suite(cfg, 0, 20)
        assert json.loads(rep.to_json())["seed"] == 42
        whole = harness.run_scalar_suite(harness.SuiteConfig(seed=42, trials=40))
        assert harness.merge_reports(rep, harness.run_scalar_suite(cfg, 20, 20)).to_json() == \
            whole.to_json()


class TestDeterminism:
    def test_scalar_reports_bitwise_identical(self):
        r1 = harness.run_scalar_suite(small_cfg())
        r2 = harness.run_scalar_suite(small_cfg())
        assert r1.to_json() == r2.to_json()
        assert r1.min_slacks == r2.min_slacks

    def test_bounds_reports_bitwise_identical(self):
        cfg = small_cfg(trials=40)
        assert harness.run_bounds_suite(cfg).to_json() == harness.run_bounds_suite(cfg).to_json()

    def test_operator_reports_bitwise_identical(self):
        cfg = harness.SuiteConfig(seed=7, trials=5, dims=(2, 3))
        assert (
            harness.run_operator_suite(cfg).to_json()
            == harness.run_operator_suite(cfg).to_json()
        )

    def test_timing_excluded_by_default(self):
        rep = harness.run_scalar_suite(small_cfg(trials=2))
        payload = json.loads(rep.to_json())
        assert payload["wall_ms"] is None
        assert rep.wall_ms is not None and rep.wall_ms > 0.0
        with_timing = json.loads(rep.to_json(include_timing=True))
        assert with_timing["wall_ms"] == rep.wall_ms


class TestPartitionInvariance:
    def test_scalar_split_matches_serial(self):
        cfg = small_cfg(trials=50)
        full = harness.run_scalar_suite(cfg)
        left = harness.run_scalar_suite(cfg, start=0, count=23)
        right = harness.run_scalar_suite(cfg, start=23, count=27)
        merged = harness.merge_reports(left, right)
        assert merged.trials == full.trials
        assert merged.failures == full.failures
        assert merged.min_slacks == full.min_slacks

    def test_operator_split_matches_serial(self):
        cfg = harness.SuiteConfig(seed=7, trials=4, dims=(2, 3))
        full = harness.run_operator_suite(cfg)
        left = harness.run_operator_suite(cfg, start=0, count=3)
        right = harness.run_operator_suite(cfg, start=3, count=5)
        merged = harness.merge_reports(left, right)
        assert merged.min_slacks == full.min_slacks
        assert merged.failures == full.failures

    def test_nan_slacks_merge_in_any_order(self):
        # no suite notes a non-finite slack, but a hand-built report may hold one
        nan, inf = float("nan"), float("inf")
        parts = [harness.SuiteReport("scalar", 1, 1, min_slacks=slacks) for slacks in (
            {"x": 0.5, "y": nan, "z": 0.0}, {"x": nan, "y": -1.0, "z": -inf},
            {"x": -2.0, "y": inf, "z": inf})]
        for order in itertools.permutations(parts):
            merged = functools.reduce(harness.merge_reports, order)
            assert {key: repr(val) for key, val in merged.min_slacks.items()} == \
                {"x": "nan", "y": "nan", "z": "-inf"}

    def test_merge_rejects_mismatched(self):
        a = harness.run_scalar_suite(small_cfg(trials=2))
        b = harness.run_bounds_suite(small_cfg(trials=2))
        with pytest.raises(ValueError):
            harness.merge_reports(a, b)

    def test_slice_validation(self):
        with pytest.raises(ValueError):
            harness.run_scalar_suite(small_cfg(trials=10), start=8, count=5)


class TestFailureRecords:
    def test_failures_are_replayable(self):
        # a negative tolerance turns ordinary roundoff into "failures",
        # exercising the record format without needing a real violation
        cfg = small_cfg(trials=10, tol=-1e-3)
        rep = harness.run_scalar_suite(cfg)
        assert not rep.passed
        record = rep.failures[0]
        assert set(record) >= {"trial", "check", "inputs"}
        single = harness.run_scalar_suite(cfg, start=record["trial"], count=1)
        replay = [r for r in single.failures if r["check"] == record["check"]]
        assert replay and replay[0]["inputs"] == record["inputs"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("runner", [harness.run_scalar_suite, harness.run_bounds_suite])
    def test_numeric_errors_become_replayable_records(self, runner):
        # exp overflows at every trial that takes it on this accepted range: its chain
        # terms are not finite and the exact derivative bounds raise OverflowError
        cfg = harness.SuiteConfig(seed=1, trials=30, a_range=(710.0, 2000.0),
                                  b_range=(710.0, 2000.0))
        rep = runner(cfg)
        errors = [r for r in rep.failures if "error" in r]
        assert errors
        for record in errors:
            assert set(record) == {"trial", "check", "inputs", "error"}
            single = runner(cfg, record["trial"], 1)
            assert record in single.failures

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflow_is_a_numeric_error_not_a_violation(self):
        # exp overflows on this range: every check that meets it, the point
        # gap checks included, records an error rather than a violated inequality,
        # at each of the 12 trials of 60 that take exp
        cfg = harness.SuiteConfig(seed=1, trials=60, a_range=(710.0, 2000.0),
                                  b_range=(710.0, 2000.0))
        rep = harness.run_scalar_suite(cfg)
        checks = [r["check"] for r in rep.failures]
        assert {check: checks.count(check) for check in checks} == \
            {"hh_chain": 12, "gap_sandwich": 12, "refined_gap": 12}
        assert {r["inputs"]["f"] for r in rep.failures} == {"exp"}
        assert all("error" in r for r in rep.failures)
        # the overflowing trials are left out of min_slacks, not noted as NaN
        assert all(math.isfinite(x) for x in rep.min_slacks.values())

    def test_reports_are_strict_json(self):
        nan, inf = float("nan"), float("inf")
        rep = harness.SuiteReport("scalar", 1, 1, [{"trial": 0, "check": "c",
                                                    "inputs": {"a": inf}, "slacks": [nan, 1.0]}],
                                  {"x": nan, "y": inf, "z": -inf, "w": 1.0})

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(rep.to_json(), parse_constant=reject)
        assert payload["min_slacks"] == {"x": "nan", "y": "inf", "z": "-inf", "w": 1.0}
        assert payload["failures"] == [{"trial": 0, "check": "c", "inputs": {"a": "inf"},
                                        "slacks": ["nan", 1.0]}]
        assert rep.min_slacks["y"] == inf  # the report object keeps the floats

    def test_min_slacks_keys_present(self):
        rep = harness.run_scalar_suite(small_cfg(trials=12))
        expected_prefixes = {"log_chain", "identric_chain", "hh_chain", "gap_sandwich",
                             "refined_gap"}
        prefixes = {key.split(".")[0] for key in rep.min_slacks}
        assert prefixes == expected_prefixes

    def test_bounds_min_slacks_keys(self):
        rep = harness.run_bounds_suite(small_cfg(trials=12))
        prefixes = {key.split(".")[0] for key in rep.min_slacks}
        assert prefixes == {"thm32", "thm33", "cor31", "cor32", "cor33", "cor34"}

    def test_operator_min_slacks_keys(self):
        cfg = harness.SuiteConfig(seed=7, trials=3, dims=(2,))
        rep = harness.run_operator_suite(cfg)
        prefixes = {key.split(".")[0] for key in rep.min_slacks}
        assert prefixes == {"op_chain", "representing", "logmean_gm"}


class TestSuitesPass:
    def test_scalar(self):
        rep = harness.run_scalar_suite(small_cfg(trials=120, functions=harness.DEFAULT_FUNCTIONS))
        assert rep.passed, rep.failures[:2]

    def test_bounds(self):
        rep = harness.run_bounds_suite(small_cfg(trials=80, functions=harness.DEFAULT_FUNCTIONS))
        assert rep.passed, rep.failures[:2]

    def test_operator(self):
        rep = harness.run_operator_suite(harness.SuiteConfig(seed=7, trials=10))
        assert rep.passed, rep.failures[:2]

    def test_point_ranges_degenerate_gracefully(self):
        cfg = harness.SuiteConfig(
            seed=1, trials=1, a_range=(2.0, 2.0), b_range=(2.0, 2.0)
        )
        rep = harness.run_scalar_suite(cfg)
        assert rep.passed
        assert all(abs(s) < 1e-13 for key, s in rep.min_slacks.items()
                   if key.startswith(("log_chain", "identric_chain")))

    def test_adversarial_tiny_gaps(self):
        # |b - a| pinned just above the draw floor: slacks shrink but stay legal
        cfg = harness.SuiteConfig(
            seed=3,
            trials=200,
            a_range=(1.0, 1.0),
            b_range=(1.0 + 1.1e-6, 1.0 + 2.2e-6),
        )
        rep = harness.run_scalar_suite(cfg)
        assert rep.passed, rep.failures[:2]
        assert 0.0 <= rep.min_slacks["hh_chain.3"] < 1e-6


class TestIntegrateCalls:
    """Every builtin has an exact split average, so no suite trial integrates."""

    @pytest.mark.parametrize("run", [harness.run_bounds_suite, harness.run_scalar_suite],
                             ids=lambda run: run.__name__)
    def test_no_integrate_call_per_trial(self, run, monkeypatch):
        calls = []
        integrate = cvx.integrate
        monkeypatch.setattr(cvx, "integrate", lambda *args: calls.append(args) or integrate(*args))
        cfg = harness.SuiteConfig(seed=42, trials=10)
        for trial in range(cfg.trials):
            calls.clear()
            assert run(cfg, trial, 1).passed
            assert len(calls) == 0, trial


class TestChainEvaluations:
    """A slice builds each set of chain terms once, over all its trials whatever builtin
    each takes, for every check that reads it: hh_chain and both gap checks, thm32 and
    thm33, cor31 and cor33 (exp on [log a, log b]), cor32 and cor34 (-log on [a, b])."""

    @staticmethod
    def builds(run, cfg, start, monkeypatch):
        calls = []
        init = cvx._Terms.__init__  # the one builder, however a module binds the class

        def counted(terms, *args, **kwargs):
            calls.append(args)
            init(terms, *args, **kwargs)

        monkeypatch.setattr(cvx._Terms, "__init__", counted)
        assert run(cfg, start, 20).passed
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("run, trials, builds", [
        (harness.run_scalar_suite, 10_000, 1),
        (harness.run_bounds_suite, 2000, 3),  # all builtins, exp on [log a, log b], -log
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_at_most_one_evaluation_per_group(self, run, trials, builds, monkeypatch):
        # the slice is the one group of every check that reads chain terms
        for start in (0, 20, 1980):
            assert self.builds(run, harness.SuiteConfig(seed=42, trials=trials), start,
                               monkeypatch) == builds

    def test_one_more_where_hh_chain_leaves_out_a_pair(self, monkeypatch):
        # b - a < MIN_GAP after every redraw at some trials: hh_chain leaves them out, so
        # its terms are built apart from the gap checks' terms, which keep them
        cfg = harness.SuiteConfig(seed=3, trials=200, a_range=(1.0, 1.0),
                                  b_range=(1.0 + 1e-7, 1.0 + 1.1e-6))
        for start in range(0, 200, 20):
            a, b, _ = harness._replay(cfg, np.arange(start, start + 20))
            close = np.abs(b - a) < harness.MIN_GAP
            assert any(close) and not all(close)
            assert self.builds(harness.run_scalar_suite, cfg, start, monkeypatch) == 2

    SUITES = pytest.mark.parametrize("run, trials, builds, scales", [
        (harness.run_scalar_suite, 10_000, 1, 1),  # the gap checks read f's scale
        (harness.run_bounds_suite, 2000, 3, 0),  # no bounds check reads it
    ], ids=lambda x: getattr(x, "__name__", x))

    @SUITES
    def test_each_formula_runs_once_per_build(self, run, trials, builds, scales, monkeypatch):
        # the chain points, split average and scale of terms over all five builtins are one
        # call each, whatever builtins the trials take, not one call per builtin
        names = ("_at_chain_points", "_split_avg", "_fn_scale")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _call=getattr(cvx, name)):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(cvx, name, counted)
        cfg = harness.SuiteConfig(seed=42, trials=trials)
        for start in (0, 20, 1980):
            calls.update(dict.fromkeys(names, 0))
            assert run(cfg, start, 20).passed
            assert calls == {"_at_chain_points": builds, "_split_avg": builds,
                             "_fn_scale": scales}

    @SUITES
    def test_each_builtin_sees_its_own_trials(self, run, trials, builds, scales, monkeypatch):
        # each call of a builtin's fn gets the points of exactly the trials that take it, in
        # trial order on the last axis: its first row (a, lo or p) is lo at those trials
        seen = []
        for name, spec in cvx.BUILTINS.items():
            def fn(x, _name=name, _fn=spec.fn):
                seen.append((_name, np.array(x)))
                return _fn(x)

            monkeypatch.setitem(cvx.BUILTINS, name, dataclasses.replace(spec, fn=fn))
            monkeypatch.setitem(cvx._AVERAGES, id(fn), cvx._AVERAGES[id(spec.fn)])
        cfg = harness.SuiteConfig(seed=42, trials=trials)
        for start in (0, 20, 1980):
            seen.clear()
            assert run(cfg, start, 20).passed
            index = np.arange(start, start + 20)
            a, b, _ = harness._replay(cfg, index)
            takes = np.array(cfg.functions)[index % len(cfg.functions)]
            assert {name for name, _ in seen} == set(cfg.functions)
            for name, x in seen:
                assert x.shape[-1] == 4 and x.ndim == 2, name
                assert x[0].tobytes() == np.minimum(a, b)[takes == name].tobytes(), name

    @SUITES
    def test_terms_leave_no_reference_cycle(self, run, trials, builds, scales):
        # the terms of a slice over all five builtins, and the arrays they hold, are freed by
        # reference counting as the slice ends, not left for the cycle collector
        cfg = harness.SuiteConfig(seed=42, trials=trials)
        assert run(cfg, 0, 20).passed
        gc.collect()
        gc.disable()
        try:
            for start in (20, 1980):
                assert run(cfg, start, 20).passed
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFunctionAxis:
    """A slice checks all its builtins in one array call per check, and gives the
    min_slacks and failure records of its one-trial slices merged."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("run", [harness.run_scalar_suite, harness.run_bounds_suite],
                             ids=lambda run: run.__name__)
    @pytest.mark.parametrize("overrides, start, errors", [
        ({}, 0, False),  # the CLI defaults
        ({"functions": ("xlogx", "exp", "quartic")}, 40, False),
        # exp overflows at the 4 trials of this slice that take it: every check that takes
        # f raises on the whole slice and reruns it trial by trial
        ({"a_range": (710.0, 2000.0), "b_range": (710.0, 2000.0)}, 120, True),
        ({"seed": 2**64 - 1}, 9980, False),  # the SplitMix state wraps mod 2**64
        # every pair stays closer than MIN_GAP after 8 redraws: hh_chain, thm32 and thm33
        # check no trial, and v comes from each trial's eleventh double
        ({"a_range": (1.0, 1.0 + 1e-9), "b_range": (1.0, 1.0 + 1e-9)}, 20, False),
    ], ids=["defaults", "subset-reordered", "exp-overflows", "top-seed", "exhausted-redraws"])
    def test_slice_equals_merged_one_trial_slices(self, run, overrides, start, errors):
        cfg = harness.SuiteConfig(**overrides)
        whole = run(cfg, start, 20)
        merged = functools.reduce(harness.merge_reports,
                                  (run(cfg, i, 1) for i in range(start, start + 20)))
        assert whole.failures == merged.failures
        assert any("error" in record for record in whole.failures) == errors
        assert {key: repr(val) for key, val in whole.min_slacks.items()} == \
            {key: repr(val) for key, val in merged.min_slacks.items()}


def reference_uniforms(cfg, dim, i):
    """Trial i's doubles at dimension ``dim`` as the README states them, one trial at a time:
    the first 2 dim^2 + 2 dim + 1 of its K = 2 D^2 + 2 D + 1, D = max(cfg.dims), from
    SplitMix64 after i K calls."""
    top = max(cfg.dims)
    rng = SplitMix64(cfg.seed, i * (2 * top * (top + 1) + 1))
    return np.array([rng.random() for _ in range(2 * dim * (dim + 1) + 1)])


class ReplayedDraws:
    """A stand-in generator that hands ``random_spd`` and ``uniform`` one trial's
    documented draws in their order: A's normals and exponent doubles, B's, v's."""

    def __init__(self, cfg, dim, i):
        u, sq = reference_uniforms(cfg, dim, i), dim * dim
        r, angle = np.sqrt(-2.0 * np.log1p(-u[:sq])), 2.0 * np.pi * u[sq:2 * sq]
        exps = u[2 * sq:2 * sq + 2 * dim]
        self.draws = [r * np.cos(angle), exps[:dim], r * np.sin(angle), exps[dim:],
                      u[2 * sq + 2 * dim]]

    def standard_normal(self, shape):
        return self.draws.pop(0).reshape(shape)

    def uniform(self, lo, hi, size=None):  # Generator.uniform: lo + (hi - lo) times a double
        return lo + (hi - lo) * self.draws.pop(0)


def reference_operator_slice(cfg, start, count):
    """The operator suite's chains trial by trial through the public one-pair
    API: (min_slacks of the op_chain keys, failure records)."""
    mins, failures = {}, []
    for i in range(start, start + count):
        dim = cfg.dims[i // cfg.trials]
        rng = ReplayedDraws(cfg, dim, i)
        mat_a, mat_b = harness.random_spd(rng, dim), harness.random_spd(rng, dim)
        v = float(rng.uniform(*cfg.v_range))
        rep = ops.operator_chain(mat_a, mat_b, v, tol=cfg.op_tol)
        margins = [vd.margin for vd in rep.verdicts]
        for idx, margin in enumerate(margins, start=1):
            mins[f"op_chain.{idx}"] = min(mins.get(f"op_chain.{idx}", np.inf), margin)
        if not rep.passed:
            inputs = {"dim": dim, "v": v, "A": mat_a.entries.tolist(),
                      "B": mat_b.entries.tolist()}
            failures.append({"trial": i, "check": "op_chain", "inputs": inputs,
                             "margins": margins})
    return mins, failures


class TestOperatorBatch:
    """A slice's trials of one dimension run as one batch of stacked calls."""

    @pytest.mark.parametrize("op_tol", [1e-10, -3e-2])
    @pytest.mark.parametrize("start,count,seed", [
        pytest.param(start, count, seed, id=f"{start}-{count}" + ("" if seed == 9001 else "-top"))
        for seed in (9001, 2**64 - 1) for start, count in ((0, 10), (7, 6), (21, 19))])
    def test_slice_matches_reference_loop(self, start, count, seed, op_tol):
        # 10 trials per dimension: (7, 6) crosses from dim 2 into dim 3 and
        # (21, 19) from dim 5 into dim 8; a seed at the top of the uint64 range
        cfg = harness.SuiteConfig(seed=seed, trials=10, op_tol=op_tol)
        rep = harness.run_operator_suite(cfg, start, count)
        mins, failures = reference_operator_slice(cfg, start, count)
        got = {key: val for key, val in rep.min_slacks.items() if key.startswith("op_chain")}
        assert got == mins
        assert rep.failures == failures
        assert bool(failures) == (op_tol < 0)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    @pytest.mark.parametrize("count", [1, 7, 20])
    def test_lapack_calls_per_slice(self, dim, count, monkeypatch):
        calls = {"qr": 0, "cholesky": 0, "inv": 0, "eigvalsh": 0, "eigh": 0}
        for name in calls:
            solve = getattr(np.linalg, name)

            def counted(m, *args, _name=name, _solve=solve):
                calls[_name] += 1
                return _solve(m, *args)

            monkeypatch.setattr(np.linalg, name, counted)
        cfg = harness.SuiteConfig(seed=5, trials=20, dims=(dim,))
        assert harness.run_operator_suite(cfg, 20 - count, count).passed
        assert calls == {"qr": 1, "cholesky": 1, "inv": 1, "eigvalsh": 1, "eigh": 0}

    @pytest.mark.parametrize("kind,error", [
        ("invalid", "matrix entries must be finite"),
        ("breakdown", "congruence transform lost positivity"),
        ("linalg", "cholesky did not converge"),
    ])
    def test_broken_trial_becomes_its_record(self, kind, error, monkeypatch):
        cfg = harness.SuiteConfig(seed=11, trials=12, dims=(3,))
        bad = 5
        bad_gauss = ReplayedDraws(cfg, 3, bad).draws[0].reshape(3, 3)
        spd_stack = harness._spd_stack

        def broken_stack(gauss, exps):
            """The slice's stack with trial ``bad``'s draws, found by its normals, broken: its
            normals are NaN ("invalid"), or its exponents 10 and -320 put A near 1e10 I and B
            near 1e-320 I.  Both are then valid, but the congruence A^{-1/2} B A^{-1/2}
            underflows to zero."""
            [k] = [k for k, g in enumerate(gauss[0]) if np.array_equal(g, bad_gauss)]
            if kind == "invalid":
                gauss[:, k] = np.nan
            else:
                exps[0, k], exps[1, k] = 10.0, -320.0
            return spd_stack(gauss, exps)

        def cholesky(m, *args, _cholesky=np.linalg.cholesky):
            if np.abs(m).max() > 1e9:
                raise np.linalg.LinAlgError("cholesky did not converge")
            return _cholesky(m, *args)

        clean = harness.merge_reports(harness.run_operator_suite(cfg, 1, bad - 1),
                                      harness.run_operator_suite(cfg, bad + 1, 11 - bad))
        monkeypatch.setattr(harness, "_spd_stack", broken_stack)
        if kind == "linalg":
            monkeypatch.setattr(np.linalg, "cholesky", cholesky)
        rep = harness.run_operator_suite(cfg, 1, 11)
        [record] = rep.failures
        assert record["trial"] == bad and record["check"] == "op_chain"
        assert record["error"].startswith(error)
        assert set(record["inputs"]) == {"dim", "v", "A", "B"}
        assert rep.min_slacks == clean.min_slacks

    def test_error_and_verdict_records_mix_in_trial_order(self, monkeypatch):
        # trial 5's NaN normals make the stack raise, so each trial reruns alone: trial 5 gets
        # its error record, and each other trial the record of its failing verdicts
        cfg = harness.SuiteConfig(seed=11, trials=12, dims=(3,), op_tol=-3e-2)
        bad = 5
        bad_gauss = ReplayedDraws(cfg, 3, bad).draws[0].reshape(3, 3)
        _, verdicts = reference_operator_slice(cfg, 1, 11)
        trials = [record["trial"] for record in verdicts]
        assert min(trials) < bad < max(trials)  # verdict records on both sides of trial 5
        spd_stack = harness._spd_stack

        def broken_stack(gauss, exps):
            [k] = [k for k, g in enumerate(gauss[0]) if np.array_equal(g, bad_gauss)]
            gauss[:, k] = np.nan
            return spd_stack(gauss, exps)

        monkeypatch.setattr(harness, "_spd_stack", broken_stack)
        rep = harness.run_operator_suite(cfg, 1, 11)
        [broken] = [record for record in rep.failures if "error" in record]
        assert broken["trial"] == bad and broken["check"] == "op_chain"
        assert broken["error"].startswith("matrix entries must be finite")
        assert set(broken["inputs"]) == {"dim", "v", "A", "B"}
        assert rep.failures == [record for record in verdicts if record["trial"] < bad] + \
            [broken] + [record for record in verdicts if record["trial"] > bad]


class TestOperatorDraws:
    """Operator trial i of dimension d reads the first 2 d^2 + 2 d + 1 of its own K SplitMix64
    outputs: the draws follow the documented layout bit for bit, whatever the slice or the
    order of the dims, and concurrent runs share no generator."""

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("dims", [(2, 3, 5, 8), (8, 5, 3, 2), (3, 2, 3, 3)],
                             ids=["given", "reversed", "repeated"])
    def test_draws_follow_the_splitmix64_layout(self, seed, dims):
        def checked(cfg, start, count):  # each trial's draws, equal to the reference's
            out = []
            slice_ = range(start, start + count)
            for dim, block in itertools.groupby(slice_, lambda i: dims[i // cfg.trials]):
                index, mat_a, mat_b, v = harness._operator_draws(cfg, dim, block)
                for k, i in enumerate(index.tolist()):
                    rng = ReplayedDraws(cfg, dim, i)
                    for got in (mat_a[k], mat_b[k]):
                        assert got.tobytes() == harness.random_spd(rng, dim).entries.tobytes()
                    assert v[k].item() == rng.uniform(*cfg.v_range)
                    out.append((i, mat_a[k].tobytes(), mat_b[k].tobytes(), v[k].item()))
            return out

        cfg = harness.SuiteConfig(seed=seed, trials=6, dims=dims)
        # the whole range and slices at 0, 5 (across a change of dimension), 17 and the last
        seen = {draws for start, count in ((0, 24), (5, 8), (17, 7), (23, 1))
                for draws in checked(cfg, start, count)}
        # one draw per trial, every slice agreeing, and no two trials alike
        assert len(seen) == 24
        assert len({draws[1:] for draws in seen}) == 24
        # trials far into the range, a slice across dims[1] and dims[2]
        checked(harness.SuiteConfig(seed=seed, trials=2**40, dims=dims), 2**41 - 2, 4)

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_uniform_is_splitmix64(self, seed):
        # outputs 1 to 300 are next()'s first 300 calls, and output n, far on, is one call
        # after n - 1 calls, where seed + n GAMMA wraps mod 2**64
        rng = SplitMix64(seed)
        want = [rng.random() for _ in range(300)]
        assert harness._uniform(seed, np.arange(1, 301, dtype=np.uint64)).tolist() == want
        far = [2**40, 2**63 + 5, 2**64 - 1]
        assert harness._uniform(seed, np.array(far, np.uint64)).tolist() == \
            [SplitMix64(seed, n - 1).random() for n in far]

    def test_reference_is_vigna_splitmix64(self):
        # the first outputs of splitmix64.c seeded with 0
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == \
            [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("dims", [(2, 3, 5, 8), (8, 5, 3, 2), (3, 2, 3, 3)],
                             ids=["given", "reversed", "repeated"])
    def test_no_two_trials_read_one_output(self, dims, monkeypatch):
        # each trial drawn alone: the SplitMix64 outputs that it reads are its own
        cfg, reads, uniform = harness.SuiteConfig(seed=7, trials=9, dims=dims), [], \
            harness._uniform
        monkeypatch.setattr(harness, "_uniform", lambda seed, n: reads.append(n) or
                            uniform(seed, n))
        owners = {}
        for i in range(cfg.trials * len(dims)):
            reads.clear()
            harness._operator_draws(cfg, dims[i // cfg.trials], [i])
            for n in set(np.concatenate([n.ravel() for n in reads]).tolist()):
                assert owners.setdefault(n, i) == i, (n, owners[n], i)
        assert len(owners) == sum(cfg.trials * (2 * d * (d + 1) + 1) for d in dims)

    def test_normals_and_exponents_have_their_law(self, monkeypatch):
        seen, spd_stack = [], harness._spd_stack

        def recorded(gauss, exps):
            seen.append((gauss.copy(), exps.copy()))
            return spd_stack(gauss, exps)

        monkeypatch.setattr(harness, "_spd_stack", recorded)
        harness._operator_draws(harness.SuiteConfig(seed=7, trials=2000, dims=(8,)), 8,
                                range(2000))
        [(gauss, exps)] = seen
        z, n = gauss.ravel(), gauss.size  # 256,000 Box-Muller normals
        # within 5 standard errors sqrt(Var(z^p) / n), Var(z^p) = 1, 2, 15, 96 for p = 1..4
        for p, want, var in ((1, 0.0, 1.0), (2, 1.0, 2.0), (3, 0.0, 15.0), (4, 3.0, 96.0)):
            assert abs(np.mean(z**p) - want) < 5.0 * math.sqrt(var / n), p
        # A's and B's normals, the cosine and sine of one angle, are uncorrelated
        assert abs(np.mean(gauss[0] * gauss[1])) < 5.0 * math.sqrt(2.0 / n)
        # exponents in U(-2, 2): mean 0, variance 4/3
        assert -2.0 <= exps.min() and exps.max() < 2.0
        assert abs(exps.mean()) < 5.0 * math.sqrt(4.0 / 3.0 / exps.size)

    def test_slices_merge_to_the_full_run(self):
        cfg = harness.SuiteConfig(seed=2**64 - 1, trials=5, dims=(3, 2, 3), op_tol=-3e-2)
        full = harness.run_operator_suite(cfg)
        for cuts in ((0, 1, 15), (0, 4, 5, 11, 15), tuple(range(16))):
            parts = [harness.run_operator_suite(cfg, lo, hi - lo)
                     for lo, hi in zip(cuts, cuts[1:])]
            merged = functools.reduce(harness.merge_reports, parts)
            assert merged.to_json() == full.to_json()
        assert {r["inputs"]["dim"] for r in full.failures if r["check"] == "op_chain"} == {2, 3}

    def test_merge_rejects_mixed_draw_schemes(self):
        op = harness.run_operator_suite(harness.SuiteConfig(seed=7, trials=1, dims=(2,)), 0, 1)
        scalar = harness.run_scalar_suite(harness.SuiteConfig(seed=7, trials=2), 0, 1)
        bounds = harness.run_bounds_suite(harness.SuiteConfig(seed=7, trials=2), 0, 1)
        assert op.draws == scalar.draws == bounds.draws == "splitmix64"
        assert json.loads(op.to_json())["draws"] == "splitmix64"
        assert harness.reference_value_check().draws is None
        # reports of no scheme, of the older "pcg64-xor" and "philox-blocks" draws, or of
        # another name do not merge with these
        for rep in (op, scalar, bounds):
            for draws in (None, "pcg64-xor", "philox-blocks", "x"):
                other = dataclasses.replace(rep, draws=draws)
                for pair in ((rep, other), (other, rep)):
                    with pytest.raises(ValueError, match="draw schemes"):
                        harness.merge_reports(*pair)
            harness.merge_reports(rep, dataclasses.replace(rep))  # the same scheme merges

    def test_concurrent_runs_equal_serial(self):
        cfgs = [harness.SuiteConfig(seed=seed, trials=100) for seed in (3, 2**64 - 1)]
        run = lambda cfg: harness.run_operator_suite(cfg).to_json()
        serial = [run(cfg) for cfg in cfgs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, cfgs)) == serial


def test_suites_leave_numpy_random_unimported():
    # the draws are ufuncs on uint64 arrays: importing meanbounds and running a 20-trial
    # slice of each suite imports no numpy.random (about 6 MB of RSS on first import)
    script = "\n".join([
        "import sys, numpy",
        "if 'numpy.random' in sys.modules: sys.exit(3)",
        "from meanbounds import harness",
        "cfg = harness.SuiteConfig(trials=20)",
        "for run in (harness.run_scalar_suite, harness.run_bounds_suite, "
        "harness.run_operator_suite):",
        "    assert run(cfg, 0, 20).passed",
        "sys.exit('numpy.random' in sys.modules)"])
    src = str(Path(harness.__file__).resolve().parents[1])
    code = subprocess.run([sys.executable, "-c", script], check=False,
                          env={**os.environ, "PYTHONPATH": src}).returncode
    if code == 3:
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert code == 0


class TestNumericFailureClass:
    """A numeric failure is an ArithmeticError: the CLI's exit 1, and a record in a suite."""

    def test_library_errors_are_arithmetic_errors(self):
        for cls in (QuadratureError, ops.NumericalBreakdown):
            assert issubclass(cls, ArithmeticError) and issubclass(cls, RuntimeError)

    def test_operator_suite_records_an_arithmetic_error(self, monkeypatch):
        def overflow(*args, **kwargs):
            raise FloatingPointError("operator chain overflowed")

        monkeypatch.setattr(ops, "operator_chain", overflow)
        rep = harness.run_operator_suite(harness.SuiteConfig(seed=7, trials=4), 0, 4)
        chain_records = [r for r in rep.failures if r["check"] == "op_chain"]
        assert [r["trial"] for r in chain_records] == [0, 1, 2, 3]
        assert all(r["error"] == "operator chain overflowed" for r in chain_records)


class TestReferenceValues:
    def test_failing_references_become_records(self, monkeypatch, capsys):
        # (2, 1) has the same sign as (4, 1), and its expected value is off
        refs = (((4.0, 1.0), 4.35403, 5e-4), ((2.0, 1.0), -1.0, 1e-3))
        monkeypatch.setattr(harness, "REFERENCE_DIFFS", refs)
        rep = harness.reference_value_check()
        assert [r["check"] for r in rep.failures] == ["reference_2_1", "sign_flip"]
        assert rep.failures[0]["expected"] == -1.0 and rep.failures[0]["tol"] == 1e-3
        assert rep.min_slacks["sign_flip"] == -1.0
        assert cli.main(["verify", "paper-numbers"]) == 1
        assert json.loads(capsys.readouterr().out)["failures"] == rep.failures

    def test_passes(self):
        rep = harness.reference_value_check()
        assert rep.passed
        assert rep.suite == "paper-numbers"

    def test_values(self):
        rep = harness.reference_value_check()
        assert rep.min_slacks["diff_4_1"] == pytest.approx(4.35403, abs=5e-4)
        assert rep.min_slacks["diff_8_1"] == pytest.approx(-30.7996, abs=5e-3)
        assert rep.min_slacks["margin_4_1"] > 0.0
        assert rep.min_slacks["margin_8_1"] > 0.0
        assert rep.min_slacks["sign_flip"] == 1.0

    def test_json_keys(self):
        payload = json.loads(harness.reference_value_check().to_json())
        assert list(payload) == ["suite", "seed", "trials", "failures", "min_slacks", "wall_ms"]
