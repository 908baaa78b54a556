import json

import pytest

from meanbounds import convex as cvx
from meanbounds import harness


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nan_slacks_merge_in_any_order(self):
        # exp overflows on this range, so some gap slacks read NaN
        cfg = harness.SuiteConfig(seed=1, trials=30, a_range=(1.0, 2000.0),
                                  b_range=(1.0, 2000.0))
        full = harness.run_scalar_suite(cfg)
        left = harness.run_scalar_suite(cfg, start=0, count=15)
        right = harness.run_scalar_suite(cfg, start=15)

        def slacks(rep):
            return {key: repr(val) for key, val in rep.min_slacks.items()}

        assert "nan" in slacks(full).values()
        assert slacks(harness.merge_reports(left, right)) == slacks(full)
        assert slacks(harness.merge_reports(right, left)) == slacks(full)

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
    def test_reports_are_strict_json(self):
        cfg = harness.SuiteConfig(seed=1, trials=30, a_range=(1.0, 2000.0),
                                  b_range=(1.0, 2000.0))
        rep = harness.run_scalar_suite(cfg)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(rep.to_json(), parse_constant=reject)
        nan_keys = [key for key, val in rep.min_slacks.items() if val != val]
        assert nan_keys
        assert all(payload["min_slacks"][key] == "nan" for key in nan_keys)

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
    """Quadrature runs per trial: the bounds suite's two gap checks share one
    split average, so each suite integrates twice per trial."""

    @pytest.mark.parametrize("run", [harness.run_bounds_suite, harness.run_scalar_suite],
                             ids=lambda run: run.__name__)
    def test_two_integrate_calls_per_trial(self, run, monkeypatch):
        calls = []
        integrate = cvx.integrate
        # forget a split average memoized by an earlier test
        monkeypatch.setattr(cvx, "_last_split_avg", [(None, None, None)], raising=False)
        monkeypatch.setattr(cvx, "integrate", lambda *args: calls.append(args) or integrate(*args))
        cfg = harness.SuiteConfig(seed=42, trials=10)
        for trial in range(cfg.trials):
            calls.clear()
            assert run(cfg, trial, 1).passed
            assert len(calls) == 2, trial


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
