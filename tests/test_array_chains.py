"""The means and mean chains written once, array-first.

Scalar calls are the 0-d case of the array functions, so every array caller
(``scan``'s grid, a scalar-suite slice, an operator stack) must agree bit for
bit with the 0-d views at each point, and the values must stay within stated
error budgets against ``mpmath``.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from meanbounds import bounds as bnd
from meanbounds import cli, harness
from meanbounds import convex as cvx
from meanbounds import operators as ops
from meanbounds import scalar as sc
from meanbounds.reports import ChainReport, GapBoundReport, chain_links
from splitmix64 import SplitMix64

EPS = np.finfo(float).eps


def _geo(a, b, v):
    return a ** (1 - v) * b**v


def _ari(a, b, v):
    return (1 - v) * a + v * b


def _log_identric(a, b, v):
    # the v-mix of the classical identric means of [a, n] and [n, b]
    n = _ari(a, b, v)

    def piece(p, q):
        return mp.log(p) if p == q else (q * mp.log(q) - p * mp.log(p)) / (q - p) - 1

    return (1 - v) * piece(a, n) + v * piece(n, b)


def oracle(a, b, v):
    """G, split mix, L_v, (A+G)/2, A and log I_v at 50 digits."""
    with mp.workdps(50):
        a, b, v = mp.mpf(a), mp.mpf(b), mp.mpf(v)
        g = _geo(a, b, v)
        mix = (1 - v) * _geo(a, b, v / 2) + v * _geo(a, b, (1 + v) / 2)
        log_mean = ((1 - v) / v * (a - g) + v / (1 - v) * (g - b)) / (mp.log(a) - mp.log(b))
        return [g, mix, log_mean, (_ari(a, b, v) + g) / 2, _ari(a, b, v), _log_identric(a, b, v)]


# Error budgets in eps, relative to the term (to max(1, |log I|) for log I).
# Worst case over 6000 draws of a, b in [1e-6, 1e6], v in [0, 1], with G as
# exp((1-v) log a + v log b) and log I from b/a before -> now: G 10.84 -> 1.35,
# mix 15.05 -> 6.97, (A+G)/2 4.70 -> 1.28, log I 10.94 -> 5.94; L 8.61 and
# A 0.96 did not move.  The mix as sqrt(G) ((1-v) sqrt(a) + v sqrt(b)) then took
# mix 7.38 -> 1.81 (1.74 on this test's 400 draws).  Each budget is at or below
# the earlier worst case.
BUDGETS = {"G": 2.0, "mix": 2.0, "L": 8.6, "(A+G)/2": 2.0, "A": 0.95, "log I": 7.0}


def test_terms_within_mpmath_budgets():
    rng = np.random.default_rng(2001)
    a, b = 10.0 ** rng.uniform(-6.0, 6.0, (2, 400))  # |log10(b/a)| <= 12
    v = rng.uniform(0.0, 1.0, 400)
    got = np.array([*sc.logarithmic_chain(a, b, v).values, sc.log_weighted_identric(a, b, v)]).T
    worst = dict.fromkeys(BUDGETS, 0.0)
    for row, point in zip(got.tolist(), zip(a.tolist(), b.tolist(), v.tolist())):
        for name, x, exact in zip(BUDGETS, row, oracle(*point)):
            scale = max(1, abs(exact)) if name == "log I" else abs(exact)
            worst[name] = max(worst[name], float(abs(x - exact) / scale) / EPS)
    assert all(worst[name] <= budget for name, budget in BUDGETS.items()), worst


def test_representing_mix_within_mpmath_budget():
    # the operator suite's regime: a = 1, every 97th t of its grid and t = 1, at every grid
    # weight and at v = 0 and 1 (there the mix is 1 or t to within an ulp)
    ts = np.logspace(*np.log10(harness.OPERATOR_GRID_RANGE), harness.OPERATOR_GRID_POINTS)
    t, v = np.broadcast_arrays(np.append(ts[::97], 1.0)[:, None],
                               np.append(harness.OPERATOR_GRID_WEIGHTS, [0.0, 1.0]))
    mix = sc.logarithmic_chain(1.0, t, v).values[1]
    worst = 0.0
    with mp.workdps(50):
        for x, tk, vk in zip(*(y.ravel().tolist() for y in (mix, t, v))):
            tk, vk = mp.mpf(tk), mp.mpf(vk)
            exact = (1 - vk) * tk ** (vk / 2) + vk * tk ** ((1 + vk) / 2)
            worst = max(worst, float(abs(x - exact) / exact) / EPS)
    assert worst <= BUDGETS["mix"], worst


class TestArrayMeans:
    MEANS = (sc.weighted_arithmetic, sc.weighted_geometric, sc.weighted_logarithmic,
             sc.weighted_identric, sc.log_weighted_identric)

    @pytest.mark.parametrize("mean", MEANS, ids=lambda f: f.__name__)
    def test_array_call_equals_0d_calls(self, mean):
        rng = np.random.default_rng(7)
        a, b = 10.0 ** rng.uniform(-3.0, 3.0, (2, 300))
        v = rng.uniform(0.0, 1.0, 300)
        a[:20], v[20:30], v[30:40] = b[:20], 0.0, 1.0  # a == b and both endpoints
        got = mean(a, b, v)
        assert got.shape == a.shape
        assert got.tolist() == [mean(x, y, w) for x, y, w in zip(a, b, v)]
        assert type(mean(1.0, 2.0, 0.3)) is float

    def test_broadcasts(self):
        t, v = np.array([[0.5, 2.0, 3.0]]), np.array([[0.2], [0.7]])
        out = sc.logarithmic_chain(1.0, t, v).values
        assert [x.shape for x in out] == [(2, 3)] * 5
        assert tuple(x[1, 2] for x in out) == sc.logarithmic_chain(1.0, 3.0, 0.7).values

    def test_log_mean_unit_array_weight(self):
        rng = np.random.default_rng(3)
        t = 10.0 ** rng.uniform(-4.0, 4.0, 200)
        v = np.concatenate([[0.0, 1.0, 0.5, 0.5 + 1e-17], rng.uniform(0.0, 1.0, 196)])
        t[:8] = 1.0 + np.array([0.0, 1e-12, -1e-12, 3e-9, 1e-8, 2e-8, 0.5, 2.0])
        got = sc.log_mean_unit(t, v)
        assert got.tolist() == [float(sc.log_mean_unit(x, w)) for x, w in zip(t, v)]
        assert got[0] == 1.0 and got[1] == t[1]
        for w in (0.0, 0.3, 0.5, 0.8, 1.0):  # a scalar weight is the same call
            assert sc.log_mean_unit(t, w).tolist() == sc.log_mean_unit(t, np.full(200, w)).tolist()

    @pytest.mark.parametrize("case", ["below", "above", "mixed", "ends"])
    def test_log_mean_unit_mask_cases(self, case):
        # each masked step runs only if some point needs it: a weight below or above 1/2 takes
        # none or all points through the mirror, mixed weights mask 1/t and the product, and
        # endpoint weights take their own where; every case keeps the bits of 0-d calls, and
        # no unused 1/t or product warns (-W error::RuntimeWarning)
        t = np.array([1e-300, 0.25, 1.0 - 1e-12, 1.0, 1.0 + 3e-9, 1.0 + 2e-8, 4.0, 1e300,
                      1.7e308])
        v = {"below": 0.3, "above": 0.8,
             "mixed": np.resize([0.3, 0.8, 0.5, np.nextafter(0.5, 1.0)], t.size),
             "ends": np.resize([0.0, 1.0, 0.3, 0.8], t.size)}[case]
        got = sc.log_mean_unit(t, v)
        assert got.tolist() == [sc.log_mean_unit(x, w) for x, w in np.broadcast(t, v)]
        assert np.isfinite(got).all()
        if case == "ends":
            assert got[[0, 4, 8]].tolist() == [1.0, 1.0, 1.0] and got[1] == t[1]

    def test_bad_point_in_an_array_raises(self):
        with pytest.raises(ValueError, match="^mean arguments must be finite and positive"):
            sc.weighted_geometric(np.array([1.0, -2.0]), 3.0, 0.5)
        with pytest.raises(ValueError, match=r"^weight must lie in \[0, 1\], got 1.5$"):
            sc.logarithmic_chain(1.0, 2.0, np.array([0.5, 1.5])).values
        with pytest.raises(ValueError, match=r"^weight must lie in \[0, 1\], got nan$"):
            sc.log_mean_unit(2.0, np.array([0.5, math.nan]))


class TestChainReport:
    """One report type covers one point (floats) and arrays (per point)."""

    def test_array_report_is_the_0d_reports(self):
        rng = np.random.default_rng(11)
        a, b = 10.0 ** rng.uniform(-3.0, 3.0, (2, 200))
        v = rng.uniform(0.0, 1.0, 200)
        for chain in (sc.logarithmic_chain, sc.identric_chain):
            for tol in (1e-12, -1e-3):  # a negative tolerance fails some points
                rep = chain(a, b, v, tol)
                assert rep.passed.shape == a.shape and rep.tol_used == tol
                points = [chain(x, y, w, tol) for x, y, w in zip(a, b, v)]
                assert np.array(rep.values).T.tolist() == [list(p.values) for p in points]
                assert np.array(rep.slacks).T.tolist() == [list(p.slacks) for p in points]
                assert rep.passed.tolist() == [p.passed for p in points]
                assert rep.scale.tolist() == [p.scale for p in points]
        assert type(points[0].passed) is bool and type(points[0].values[0]) is float

    def test_one_label_per_value(self):
        with pytest.raises(ValueError, match="need one label per value"):
            ChainReport.from_values(("p",), (1.0, 2.0), 1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_term_raises(self, bad):
        with pytest.raises(FloatingPointError, match="^chain terms are not finite$"):
            ChainReport.from_values("pqr", (1.0, 2.0, bad), 1e-12)
        with pytest.raises(FloatingPointError):
            chain_links((np.ones(3), np.array([2.0, bad, 2.0])), 1e-12)
        with pytest.raises(FloatingPointError, match="^g: gap, bounds or scale are not finite$"):
            GapBoundReport.build("g", 0.1, 0.0, bad, 1e-9, 1.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_chain_raises(self):
        # the 4th term's inner sum geo + (1 - v) a + v b overflows
        with pytest.raises(FloatingPointError):
            sc.logarithmic_chain(1.6e308, 1.7e308, 0.5)
        with pytest.raises(FloatingPointError):
            sc.logarithmic_chain(np.array([1.0, 1.6e308]), 1.7e308, 0.5)
        assert sc.identric_chain(1.6e308, 1.7e308, 0.5).passed


class TestWideIdentric:
    """The identric mean never forms b/a, so wide pairs answer."""

    def test_matches_the_neg_log_split_average(self, capsys):
        abv = ("--a", "1e-300", "--b", "1e300", "--v", "0.3")
        assert cli.main(["means", "eval", "--mean", "identric", *abv]) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert cli.main(["hh", "c", "--f", "neg-log", *abv]) == 0
        neg_log = json.loads(capsys.readouterr().out)["value"]
        assert sc.log_weighted_identric(1e-300, 1e300, 0.3) == -neg_log == 689.0875434385989
        assert value == math.exp(689.0875434385989)

    @pytest.mark.parametrize("a, b", [(1e-300, 1e300), (1e300, 1e-300), (5e-324, 1.0)])
    def test_chain_answers(self, a, b):
        for v in (0.0, 0.3, 0.5, 0.9, 1.0):
            rep = sc.identric_chain(a, b, v)
            assert rep.passed and all(map(math.isfinite, rep.values)), (a, b, v)


@pytest.mark.parametrize("chain", ["log", "identric"])
def test_scan_rows_equal_the_0d_chains(chain, capsys):
    # the a and b grids coincide, so the diagonal has a == b; v runs over 0 and 1
    assert cli.main(["scan", "--a", "0.1:10:7", "--b", "0.1:10:7", "--v", "0:1:11",
                     "--chain", chain]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    view = sc.logarithmic_chain if chain == "log" else sc.identric_chain
    assert len(rows) == 7 * 7 * 11
    assert any(row["a"] == row["b"] for row in rows)
    for row in rows:
        rep = view(row["a"], row["b"], row["v"])
        assert [row[label] for label in rep.labels] == list(rep.values)
        assert [row[f"slack_{k}"] for k in range(1, 5)] == list(rep.slacks)
        assert row["pass"] is rep.passed


def draw_trial(cfg, i):
    """Trial i's (a, b, v), drawn one at a time from SplitMix64 after 11 i calls, as the
    scalar and bounds suites define them: a, then b, log-uniform over their ranges (no draw for
    a one-point range), b redrawn up to 8 times while |b - a| < MIN_GAP, then v."""
    rng = SplitMix64(cfg.seed, 11 * i)

    def log_uniform(lo, hi):
        return lo if lo == hi else float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    a, b = log_uniform(*cfg.a_range), log_uniform(*cfg.b_range)
    for _ in range(8):
        if abs(b - a) >= harness.MIN_GAP:
            break
        b = log_uniform(*cfg.b_range)
    return a, b, float(rng.uniform(*cfg.v_range))


class TestReplay:
    """The suites draw trial i's doubles as arrays, bit for bit the one-at-a-time draws above."""

    SEEDS = (0, 7, 42, 2**63, 2**64 - 20, 2**64 - 1)
    # slices at 0, 17 and the last trials of a 10,000-trial run, and indices far into the
    # range: with the eight cases below, 18,720 trials
    INDEX = np.r_[0:320, 17:37, 9980:10_000, 2**40 - 30:2**40]

    @pytest.mark.parametrize("overrides, close", [
        ({}, (0.0, 0.0)),  # the CLI defaults
        ({"a_range": (2.0, 2.0)}, None),  # one-point ranges take no draw: a, b or both
        ({"b_range": (0.5, 0.5)}, None),
        ({"a_range": (3.0, 3.0), "b_range": (3.0, 3.0), "v_range": (0.4, 0.4)}, (1.0, 1.0)),
        ({"a_range": (5e-324, 1.7e308), "b_range": (5e-324, 1.7e308)}, None),
        # 3/4 of the first pairs are closer than MIN_GAP, and (1 - 2**-10) / 5 = 0.1998 of
        # them stay closer after 9 draws of b; 2280 pairs give a standard error of 0.0084
        ({"a_range": (1.0, 1.0 + 2e-6), "b_range": (1.0, 1.0 + 2e-6)}, (0.165, 0.235)),
        # with a at the range's end, 1/2 of the first pairs and 2**-9 after 9 draws
        ({"a_range": (1.0, 1.0), "b_range": (1.0, 1.0 + 2e-6)}, (0.0, 0.01)),
        # every pair is closer than MIN_GAP: every trial draws b nine times, v last
        ({"a_range": (1.0, 1.0 + 1e-9), "b_range": (1.0, 1.0 + 1e-9)}, (1.0, 1.0)),
    ], ids=["defaults", "a-point", "b-point", "all-points", "full-range", "redraws",
            "a-point-redraws", "exhausted"])
    def test_draws_equal_splitmix64_reference(self, overrides, close):
        pairs_close = []
        for seed in self.SEEDS:
            cfg = harness.SuiteConfig(seed=seed, **overrides)
            got = np.array(harness._replay(cfg, self.INDEX))
            want = np.array([draw_trial(cfg, i) for i in self.INDEX.tolist()]).T
            assert got.tobytes() == want.tobytes(), (seed, np.argwhere(got != want)[:3])
            pairs_close.extend(np.abs(got[1] - got[0]) < harness.MIN_GAP)
        if close is not None:
            assert close[0] <= np.mean(pairs_close) <= close[1]

    @pytest.mark.parametrize("overrides", [
        {}, {"a_range": (1.0, 1.0 + 1e-9), "b_range": (1.0, 1.0 + 1e-9)}],
        ids=["defaults", "exhausted"])
    def test_no_two_trials_read_one_output(self, overrides, monkeypatch):
        # each trial drawn alone: the SplitMix64 outputs that it reads, all 11 where every
        # redraw is taken, are its own
        cfg, reads, uniform = harness.SuiteConfig(seed=7, trials=200, **overrides), [], \
            harness._uniform
        monkeypatch.setattr(harness, "_uniform", lambda seed, n: reads.append(n) or
                            uniform(seed, n))
        owners = {}
        for i in range(cfg.trials):
            reads.clear()
            harness._replay(cfg, np.array([i]))
            for n in set(np.concatenate([n.ravel() for n in reads]).tolist()):
                assert owners.setdefault(n, i) == i, (n, owners[n], i)
        assert len(owners) == cfg.trials * (11 if overrides else 3)


def reference_scalar_slice(cfg, start, count):
    """The scalar suite trial by trial through the public chains and checks,
    collected in a SuiteReport: (min_slacks, failures)."""
    rep = harness.SuiteReport("scalar", cfg.seed, count)
    for i in range(start, start + count):
        a, b, v = draw_trial(cfg, i)
        fname = cfg.functions[i % len(cfg.functions)]
        f, lo, hi, tol = cvx.get_builtin(fname), min(a, b), max(a, b), cfg.tol
        inputs = {"a": a, "b": b, "v": v, "f": fname}

        def chain(key, report):
            for idx, slack in enumerate(report.slacks, start=1):
                rep._note(f"{key}.{idx}", slack)
            if not report.passed:
                rep._fail(i, key, inputs, slacks=list(report.slacks))

        def gap_sandwich():
            res = cvx.gap_sandwich_check(f, lo, hi, v, tol=tol)
            rep._note("gap_sandwich.lower", res.gap - res.lower_bound)
            rep._note("gap_sandwich.upper", res.upper_bound - res.gap)
            if not res.passed:
                rep._fail(i, "gap_sandwich", inputs, gap=res.gap, lower_bound=res.lower_bound,
                          upper_bound=res.upper_bound)

        def refined_gap():
            res = cvx.refined_gap_check(f, lo, hi, v, tol=tol)
            rep._note("refined_gap.refined", res.lhs - res.rhs)
            rep._note("refined_gap.nonneg", res.rhs)
            if not res.passed:
                rep._fail(i, "refined_gap", inputs, lhs=res.lhs, rhs=res.rhs)

        checks = {
            "log_chain": lambda: chain("log_chain", sc.logarithmic_chain(a, b, v, tol)),
            "identric_chain": lambda: chain("identric_chain", sc.identric_chain(a, b, v, tol)),
            "hh_chain": lambda: hi - lo < harness.MIN_GAP or chain(
                "hh_chain", cvx.chain_eval(f, lo, hi, v, tol=tol)),
            "gap_sandwich": gap_sandwich,
            "refined_gap": refined_gap,
        }
        with np.errstate(all="ignore"):  # as the suite runs its checks
            for key, check in checks.items():
                try:
                    check()
                except (ArithmeticError, ValueError) as exc:
                    rep._fail(i, key, inputs, error=str(exc))
    return rep.min_slacks, rep.failures


WIDE = dict(a_range=(1e-300, 1e-290), b_range=(1e290, 1e300))
NEAR_MAX = dict(a_range=(1.5e308, 1.79e308), b_range=(1.5e308, 1.79e308))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("overrides, start, count", [
    ({}, 0, 60),
    ({}, 17, 20),
    ({}, 7, 0),  # an empty slice
    ({"tol": -1e-3}, 5, 20),  # a negative tolerance makes the chains fail: records compared
    ({"seed": 5, "trials": 10, **WIDE}, 0, 10),  # b/a overflows at every trial
    ({"seed": 5, "a_range": (1e-300, 1.0), "b_range": (1.0, 1e300)}, 0, 40),  # at some
    ({"seed": 3, **NEAR_MAX}, 0, 40),  # a chain term overflows at every trial
    # MIN_GAP leaves 9 trials out of hh_chain but not of the gap checks: two trial sets
    ({"a_range": (1.0, 1.000002), "b_range": (1.0, 1.000002)}, 0, 60),
])
def test_scalar_slice_equals_trial_by_trial_reference(overrides, start, count):
    cfg = harness.SuiteConfig(**{"seed": 42, "trials": 60, **overrides})
    rep = harness.run_scalar_suite(cfg, start, count)
    mins, failures = reference_scalar_slice(cfg, start, count)
    assert rep.failures == failures
    assert {key: repr(x) for key, x in rep.min_slacks.items()} == \
        {key: repr(x) for key, x in mins.items()}


BOUNDS_PRODUCERS = {  # key -> (takes f, public producer)
    "thm32": (True, bnd.deriv_gap_bounds),
    "thm33": (True, bnd.curvature_gap_bounds),
    "cor31": (False, bnd.logmean_diff_reverse),
    "cor32": (False, bnd.identric_ratio_reverse),
    "cor33": (False, bnd.logmean_diff_refinement),
    "cor34": (False, bnd.identric_ratio_refinement),
}


def reference_bounds_slice(cfg, start, count):
    """The bounds suite trial by trial through the public producers, collected
    in a SuiteReport: (min_slacks, failures)."""
    rep = harness.SuiteReport("bounds", cfg.seed, count)
    for i in range(start, start + count):
        a, b, v = draw_trial(cfg, i)
        fname = cfg.functions[i % len(cfg.functions)]
        f, lo, hi = cvx.get_builtin(fname), min(a, b), max(a, b)
        inputs = {"a": lo, "b": hi, "v": v, "f": fname}
        for key, (takes_f, producer) in BOUNDS_PRODUCERS.items():
            if takes_f and hi - lo < harness.MIN_GAP:
                continue
            try:
                for gap in producer(*((f,) if takes_f else ()), lo, hi, v, tol=cfg.tol):
                    name = f"{key}.{gap.name}"
                    rep._note(f"{name}.lower", gap.slack_lower())
                    rep._note(f"{name}.upper", gap.slack_upper())
                    if not gap.passed:
                        rep._fail(i, name, inputs, gap=gap.gap, lower_bound=gap.lower_bound,
                                  upper_bound=gap.upper_bound)
            except (ArithmeticError, ValueError) as exc:
                rep._fail(i, key, inputs, error=str(exc))
    return rep.min_slacks, rep.failures


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("overrides, start, count", [
    ({}, 0, 40),
    ({}, 13, 20),
    ({}, 7, 0),  # an empty slice
    ({"tol": -1e-3}, 5, 20),  # a negative tolerance makes the bounds fail: records compared
    # exp overflows at every trial that takes it: thm32 and thm33 raise at 6 trials each
    ({"seed": 1, "trials": 30, "a_range": (710.0, 2000.0), "b_range": (710.0, 2000.0)}, 0, 30),
    # thm33 and cor34 raise at every trial, thm32 at 24, while cor32 answers: 104 records
    # (the reference's 0-d thm33 and cor34 calls warn of 0 * inf in a window)
    pytest.param({"seed": 2, "a_range": (1.0, 2.0), "b_range": (1e200, 1e201)}, 0, 40,
                 marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")),
])
def test_bounds_slice_equals_trial_by_trial_reference(overrides, start, count):
    cfg = harness.SuiteConfig(**{"seed": 42, "trials": 40, **overrides})
    rep = harness.run_bounds_suite(cfg, start, count)
    mins, failures = reference_bounds_slice(cfg, start, count)
    assert rep.failures == failures
    assert {key: repr(x) for key, x in rep.min_slacks.items()} == \
        {key: repr(x) for key, x in mins.items()}


PUBLIC_PRODUCERS = {
    cvx: ("chain_terms", "split_integral_avg", "convexity_violation", "chain_eval",
          "gap_sandwich_check", "refined_gap_check"),
    bnd: ("derivative_bounds", "trapezoid_gap_bounds", "midpoint_gap_bounds", "deriv_gap_bounds",
          "curvature_gap_bounds", "logmean_diff_reverse", "identric_ratio_reverse",
          "logmean_diff_refinement", "identric_ratio_refinement"),
}


@pytest.mark.parametrize("run, overrides", [
    (harness.run_bounds_suite, {"seed": 2, "a_range": (1.0, 2.0), "b_range": (1e200, 1e201)}),
    (harness.run_scalar_suite, {"seed": 5, **WIDE}),
])
def test_a_raising_slice_reruns_through_its_builder_and_body(monkeypatch, run, overrides):
    # array calls raise on these configs; each trial then reruns alone through the same
    # builder and body, so the suites give the same records with every producer refusing
    cfg = harness.SuiteConfig(**{"trials": 40, **overrides})
    expected = run(cfg)
    assert any("error" in record for record in expected.failures)
    for module, names in PUBLIC_PRODUCERS.items():
        for name in names:
            def refuse(*args, name=name, **kwargs):
                raise AssertionError(f"the suite called {name}")
            monkeypatch.setattr(module, name, refuse)
    rep = run(cfg)
    assert rep.failures == expected.failures
    assert {key: repr(x) for key, x in rep.min_slacks.items()} == \
        {key: repr(x) for key, x in expected.min_slacks.items()}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_near_max_slice_records_an_error_not_infinite_slacks():
    cfg = harness.SuiteConfig(seed=3, trials=40, **NEAR_MAX)
    rep = harness.run_scalar_suite(cfg)
    log_chain = [r for r in rep.failures if r["check"] == "log_chain"]
    assert [r["trial"] for r in log_chain] == list(range(40))
    assert all(r["error"] == "chain terms are not finite" for r in log_chain)
    assert not any(key.startswith("log_chain") for key in rep.min_slacks)
    assert all(math.isfinite(rep.min_slacks[f"identric_chain.{k}"]) for k in range(1, 5))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_wide_slice_records_each_bad_trial_once():
    cfg = harness.SuiteConfig(seed=5, trials=10, **WIDE)
    rep = harness.run_scalar_suite(cfg)
    chains = [(r["trial"], r["check"]) for r in rep.failures
              if r["check"] in ("log_chain", "identric_chain")]
    # the logarithmic mean still forms b/a; the identric chain now answers
    assert chains == [(i, "log_chain") for i in range(10)]
    assert all(rep.min_slacks[f"identric_chain.{k}"] >= 0.0 for k in range(1, 5))
    assert [r["trial"] for r in rep.failures] == sorted(r["trial"] for r in rep.failures)


def parent_operator_chain(a, b, v, tol):
    """One pair's chain as computed before the chains were written once: the
    representing terms from their own array copy (t**v with numpy power), the
    split mix from sqrt(t**v) as the chain takes it.  The verdicts are taken at the
    eigvalsh spectrum of the congruence C = L^{-1} B L^{-T}, the terms at eigh(C) = V Lambda V^T
    in the frame L V."""
    low, c = ops._congruence(a.entries, b.entries)

    def chain_values(lam):
        geo = lam**v
        return np.array([
            geo,
            np.sqrt(geo) * ((1.0 - v) + v * np.sqrt(lam)),
            sc.log_mean_unit(lam, v),
            0.5 * (geo + (1.0 - v) + v * lam),
            (1.0 - v) + v * lam,
        ])

    lam = np.linalg.eigvalsh(c)
    values = chain_values(lam)
    slack = values[1:] - values[:-1]
    allowed = tol * np.abs(values).max(axis=0)
    worst = (slack + allowed).argmin(axis=-1)
    verdicts = [(slack[k, j], lam[j], allowed[j], slack[k, j] >= -allowed[j])
                for k, j in enumerate(worst.tolist())]
    lam_terms, vec = np.linalg.eigh(c)
    return ops._from_representing(low @ vec, chain_values(lam_terms)), verdicts


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("tol", [1e-10, -3e-2])
def test_operator_chain_equals_parent_terms(dim, tol):
    rng = np.random.default_rng(100 + dim)
    gens = [np.random.default_rng(dim ^ i) for i in range(12)]
    mats = [ops.SpdMatrix([harness.random_spd(g, dim).entries for g in gens])
            for _ in range(2)]  # A, then B from each generator
    weights = rng.uniform(0.01, 0.99, 12).tolist()
    stacked = ops.operator_chain(*mats, weights, tol=tol)
    for k in range(len(gens)):
        a, b = (ops.SpdMatrix(m.entries[k]) for m in mats)
        terms, verdicts = parent_operator_chain(a, b, weights[k], tol)
        single = ops.operator_chain(a, b, weights[k], tol=tol)
        assert all(np.array_equal(x[k], y) for x, y in zip(stacked.terms, terms))
        assert all(np.array_equal(x, y) for x, y in zip(single.terms, terms))
        expected = [(*map(float, vd[:3]), bool(vd[3])) for vd in verdicts]
        assert [(vd.margin[k].item(), vd.eigenvalue[k].item(), vd.tol_used[k].item(),
                 vd.holds[k].item()) for vd in stacked.verdicts] == expected
        assert [(vd.margin, vd.eigenvalue, vd.tol_used, vd.holds)
                for vd in single.verdicts] == expected
        assert stacked.passed[k].item() == single.passed == all(vd[3] for vd in expected)
