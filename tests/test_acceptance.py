"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import json
import math
import time

import numpy as np
import pytest

from meanbounds import cli, harness
from meanbounds import convex as cvx
from meanbounds import bounds as bnd
from meanbounds import operators as ops
from meanbounds import scalar as sc


def verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_reference_values():
    t0 = time.perf_counter()
    rep = harness.reference_value_check()
    elapsed = time.perf_counter() - t0
    d1 = rep.min_slacks["diff_4_1"]
    d2 = rep.min_slacks["diff_8_1"]
    ok = (
        abs(d1 - 4.35403) <= 5e-4
        and abs(d2 - (-30.7996)) <= 5e-3
        and rep.passed
        and elapsed < 1.0
    )
    verdict(1, ok, f"diff(4,1)={d1:.6f}, diff(8,1)={d2:.6f}, {elapsed:.3f}s")


def test_criterion_2_seven_term_chain():
    cfg = harness.SuiteConfig(seed=42, trials=10_000, tol=1e-9)
    t0 = time.perf_counter()
    rep = harness.run_scalar_suite(cfg)
    elapsed = time.perf_counter() - t0
    chain_failures = [r for r in rep.failures if r["check"] == "hh_chain"]
    min_chain_slack = min(v for k, v in rep.min_slacks.items() if k.startswith("hh_chain"))
    ok = not chain_failures and rep.passed and elapsed < 60.0
    verdict(2, ok, f"10000 trials, min chain slack {min_chain_slack:.2e}, {elapsed:.1f}s")


def test_criterion_3_quadrature_oracles():
    grid = np.linspace(0.1, 3.0, 21)
    vs = np.linspace(0.1, 0.9, 9)
    # fns of their own, which no closed form matches: these integrate
    f_exp = cvx.make_convex_fn("exp", lambda t: np.exp(t), np.exp, np.exp)
    f_neg = cvx.make_convex_fn("neg-log", lambda t: -np.log(t), domain=(0.0, math.inf))
    worst_exp = 0.0
    worst_neg = 0.0
    for i, a in enumerate(grid):
        for b in grid[i + 1:]:
            for v in vs:
                c1 = cvx.split_integral_avg(f_exp, a, b, v)
                l_ref = sc.weighted_logarithmic(math.exp(a), math.exp(b), v)
                worst_exp = max(worst_exp, abs(c1 - l_ref) / l_ref)
                c2 = cvx.split_integral_avg(f_neg, a, b, v)
                i_ref = sc.log_weighted_identric(a, b, v)
                worst_neg = max(worst_neg, abs(c2 + i_ref) / abs(i_ref))
    ok = worst_exp <= 1e-8 and worst_neg <= 1e-8
    verdict(3, ok, f"max rel err exp {worst_exp:.2e}, neg-log {worst_neg:.2e}")


def test_criterion_4_derivative_sandwiches():
    cfg = harness.SuiteConfig(seed=42, trials=2_000, functions=("exp", "neg-log"))
    rep = harness.run_bounds_suite(cfg)
    sandwich_failures = [
        r for r in rep.failures if r["check"].startswith(("thm32", "thm33"))
    ]
    # t^2 pinning: lower and upper curvature bounds coincide, gap matches
    rng = np.random.default_rng(42)
    square = cvx.get_builtin("square")
    worst_pin = 0.0
    for _ in range(2_000):
        a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
        if b - a < 1e-6:
            continue
        v = rng.uniform(0.01, 0.99)
        for r in bnd.curvature_gap_bounds(square, a, b, v):
            assert r.lower_bound == pytest.approx(r.upper_bound, rel=1e-14)
            worst_pin = max(worst_pin, abs(r.gap - r.lower_bound) / r.scale)
    ok = not sandwich_failures and worst_pin <= 1e-10
    verdict(4, ok, f"2000 oriented trials, worst square pinning {worst_pin:.2e} scale")


def test_criterion_5_corollary_suites():
    cfg = harness.SuiteConfig(seed=42, trials=2_000)
    rep = harness.run_bounds_suite(cfg)
    cor_failures = [r for r in rep.failures if r["check"].startswith("cor")]
    # strict positivity of the refinement's lower bounds for b > a
    rng = np.random.default_rng(7)
    strict_ok = True
    for _ in range(2_000):
        a, b = sorted(np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2)))
        if b - a < 1e-9:
            continue
        v = rng.uniform(0.01, 0.99)
        for r in bnd.logmean_diff_refinement(a, b, v):
            strict_ok = strict_ok and r.lower_bound > 0.0 and r.gap > 0.0
    ok = not cor_failures and strict_ok
    verdict(5, ok, f"cor31-34 on 2000 oriented trials, strict lower bounds: {strict_ok}")


def test_criterion_6_operator_chain():
    cfg = harness.SuiteConfig(seed=7, trials=500, dims=(2, 3, 5, 8), op_tol=1e-10)
    t0 = time.perf_counter()
    rep = harness.run_operator_suite(cfg)
    elapsed = time.perf_counter() - t0
    min_eig = min(v for k, v in rep.min_slacks.items() if k.startswith("op_chain"))
    ok = rep.passed and elapsed < 60.0
    verdict(6, ok, f"500x{{2,3,5,8}} pairs, min verdict eig {min_eig:.2e}, {elapsed:.1f}s")


def test_criterion_7_diagonal_reduction():
    rng = np.random.default_rng(11)
    pairs = (
        (ops.weighted_arithmetic, sc.weighted_arithmetic),
        (ops.weighted_geometric, sc.weighted_geometric),
        (ops.weighted_logarithmic, sc.weighted_logarithmic),
    )
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        d_a = 10.0 ** rng.uniform(-2, 2, dim)
        d_b = 10.0 ** rng.uniform(-2, 2, dim)
        v = rng.uniform(0.01, 0.99)
        mat_a = ops.SpdMatrix(np.diag(d_a))
        mat_b = ops.SpdMatrix(np.diag(d_b))
        for op_fn, sc_fn in pairs:
            got = op_fn(mat_a, mat_b, v).entries
            want = np.diag([sc_fn(x, y, v) for x, y in zip(d_a, d_b)])
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    ok = worst <= 1e-12
    verdict(7, ok, f"100 diagonal trials, worst entry error {worst:.2e}")


def test_criterion_8_numerical_stability():
    stable = all(
        math.isfinite(sc.weighted_logarithmic(1.0, 1.0 + 1e-13, v))
        and abs(sc.weighted_logarithmic(1.0, 1.0 + 1e-13, v) - 1.0) <= 1e-8
        for v in (0.1, 0.5, 0.9)
    )
    rng = np.random.default_rng(123)
    means = (
        sc.weighted_arithmetic,
        sc.weighted_geometric,
        sc.weighted_logarithmic,
        sc.weighted_identric,
    )
    worst_sym = 0.0
    worst_hom = 0.0
    for i in range(10_000):
        a, b, c = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 3))
        v = rng.uniform(0.01, 0.99)
        mean = means[i % len(means)]
        m1 = mean(a, b, v)
        worst_sym = max(worst_sym, abs(m1 - mean(b, a, 1.0 - v)) / m1)
        worst_hom = max(worst_hom, abs(mean(c * a, c * b, v) - c * m1) / (c * m1))
    ok = stable and worst_sym <= 1e-12 and worst_hom <= 1e-12
    verdict(8, ok, f"tiny-gap stable: {stable}, sym {worst_sym:.2e}, hom {worst_hom:.2e}")


def test_criterion_9_cli_determinism(capsys):
    argv = ["verify", "scalar", "--seed", "42", "--trials", "1000"]
    code1 = cli.main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli.main(list(argv))
    out2 = capsys.readouterr().out
    payload = json.loads(out1)
    ok = code1 == 0 and code2 == 0 and out1 == out2 and payload["failures"] == []
    verdict(9, ok, f"two runs, {len(out1)} bytes each, byte-identical: {out1 == out2}")
