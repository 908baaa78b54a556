import functools
import itertools
import json
import math

import numpy as np
import pytest

from meanbounds import convex as cvx
from meanbounds import harness
from meanbounds import operators as ops


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
        with pytest.raises(ValueError):
            harness.SuiteConfig(v_range=(0.0, 0.5))
        with pytest.raises(ValueError):
            harness.SuiteConfig(v_range=(0.2, 1.0))

    def test_rejects_negative_range(self):
        with pytest.raises(ValueError):
            harness.SuiteConfig(a_range=(-1.0, 2.0))

    def test_rejects_unknown_function(self):
        with pytest.raises(KeyError):
            harness.SuiteConfig(functions=("cube",))

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            harness.SuiteConfig(seed=-1)


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
        # exp overflows on this accepted range: the quadrature sees non-finite
        # values and the exact derivative bounds raise OverflowError
        cfg = harness.SuiteConfig(seed=1, trials=30, a_range=(1.0, 2000.0),
                                  b_range=(1.0, 2000.0))
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
        # gap checks included, records an error rather than a violated inequality
        cfg = harness.SuiteConfig(seed=1, trials=60, a_range=(1.0, 2000.0),
                                  b_range=(1.0, 2000.0))
        rep = harness.run_scalar_suite(cfg)
        checks = [r["check"] for r in rep.failures]
        assert {check: checks.count(check) for check in checks} == \
            {"hh_chain": 6, "gap_sandwich": 6, "refined_gap": 6}
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
            close = [abs(b - a) < harness.MIN_GAP for a, b in (
                harness._draw_pair(harness._trial_rng(cfg.seed, i), cfg)
                for i in range(start, start + 20))]
            assert any(close) and not all(close)
            assert self.builds(harness.run_scalar_suite, cfg, start, monkeypatch) == 2


class TestFunctionAxis:
    """A slice checks all its builtins in one array call per check, and gives the
    min_slacks and failure records of its one-trial slices merged."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("run", [harness.run_scalar_suite, harness.run_bounds_suite],
                             ids=lambda run: run.__name__)
    @pytest.mark.parametrize("overrides, start, errors", [
        ({}, 0, False),  # the CLI defaults
        ({"functions": ("xlogx", "exp", "quartic")}, 40, False),
        # exp overflows at some trials of this slice: every check that takes f raises on
        # the whole slice and reruns it trial by trial
        ({"a_range": (1.0, 800.0), "b_range": (1.0, 800.0)}, 120, True),
    ], ids=["defaults", "subset-reordered", "exp-overflows"])
    def test_slice_equals_merged_one_trial_slices(self, run, overrides, start, errors):
        cfg = harness.SuiteConfig(**overrides)
        whole = run(cfg, start, 20)
        merged = functools.reduce(harness.merge_reports,
                                  (run(cfg, i, 1) for i in range(start, start + 20)))
        assert whole.failures == merged.failures
        assert any("error" in record for record in whole.failures) == errors
        assert {key: repr(val) for key, val in whole.min_slacks.items()} == \
            {key: repr(val) for key, val in merged.min_slacks.items()}


def reference_operator_slice(cfg, start, count):
    """The operator suite's chains trial by trial through the public one-pair
    API: (min_slacks of the op_chain keys, failure records)."""
    mins, failures = {}, []
    for i in range(start, start + count):
        rng = np.random.default_rng(cfg.seed ^ i)
        dim = cfg.dims[i // cfg.trials]
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
    @pytest.mark.parametrize("start,count", [(0, 10), (7, 6), (21, 19)])
    def test_slice_matches_reference_loop(self, start, count, op_tol):
        # 10 trials per dimension: (7, 6) crosses from dim 2 into dim 3 and
        # (21, 19) from dim 5 into dim 8
        cfg = harness.SuiteConfig(seed=9001, trials=10, op_tol=op_tol)
        rep = harness.run_operator_suite(cfg, start, count)
        mins, failures = reference_operator_slice(cfg, start, count)
        got = {key: val for key, val in rep.min_slacks.items() if key.startswith("op_chain")}
        assert got == mins
        assert rep.failures == failures
        assert bool(failures) == (op_tol < 0)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    @pytest.mark.parametrize("count", [1, 7, 20])
    def test_lapack_calls_per_slice(self, dim, count, monkeypatch):
        calls = {"qr": 0, "eigvalsh": 0, "eigh": 0}
        for name in calls:
            solve = getattr(np.linalg, name)

            def counted(m, *args, _name=name, _solve=solve):
                calls[_name] += 1
                return _solve(m, *args)

            monkeypatch.setattr(np.linalg, name, counted)
        cfg = harness.SuiteConfig(seed=5, trials=20, dims=(dim,))
        assert harness.run_operator_suite(cfg, 20 - count, count).passed
        assert calls == {"qr": 2, "eigvalsh": 2, "eigh": 2}

    @pytest.mark.parametrize("kind,error", [
        ("invalid", "matrix entries must be finite"),
        ("breakdown", "congruence transform lost positivity"),
        ("linalg", "eigh did not converge"),
    ])
    def test_broken_trial_becomes_its_record(self, kind, error, monkeypatch):
        cfg = harness.SuiteConfig(seed=11, trials=12, dims=(3,))
        bad = 5
        trial_rng = harness._trial_rng

        class BrokenRng:
            """Trial ``bad``'s generator: its matrices are NaN ("invalid"), or
            A is near 1e10 I and B near 1e-320 I.  Both are then valid, but the
            congruence A^{-1/2} B A^{-1/2} underflows to zero."""

            def __init__(self, rng):
                self.rng, self.exps = rng, iter([10.0, -320.0])

            def standard_normal(self, shape):
                gauss = self.rng.standard_normal(shape)
                return np.full(shape, np.nan) if kind == "invalid" else gauss

            def uniform(self, lo, hi, size=None):
                x = self.rng.uniform(lo, hi, size)
                return x if size is None or kind == "invalid" else np.full(size, next(self.exps))

        def broken_rng(seed, index):
            rng = trial_rng(seed, index)
            return BrokenRng(rng) if index == bad else rng

        def eigh(m, *args, _eigh=np.linalg.eigh):
            if np.abs(m).max() > 1e9:
                raise np.linalg.LinAlgError("eigh did not converge")
            return _eigh(m, *args)

        clean = harness.merge_reports(harness.run_operator_suite(cfg, 1, bad - 1),
                                      harness.run_operator_suite(cfg, bad + 1, 11 - bad))
        monkeypatch.setattr(harness, "_trial_rng", broken_rng)
        if kind == "linalg":
            monkeypatch.setattr(np.linalg, "eigh", eigh)
        rep = harness.run_operator_suite(cfg, 1, 11)
        [record] = rep.failures
        assert record["trial"] == bad and record["check"] == "op_chain"
        assert record["error"].startswith(error)
        assert set(record["inputs"]) == {"dim", "v", "A", "B"}
        assert rep.min_slacks == clean.min_slacks


class TestReferenceValues:
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
