"""Randomized verification suites: seeded, replayable, mergeable.

Run:  python3 demos/05_verification_suites.py
"""

from meanbounds import (
    SuiteConfig,
    merge_reports,
    reference_value_check,
    run_bounds_suite,
    run_operator_suite,
    run_scalar_suite,
)

# Every suite draws from SplitMix64 and its reports name that scheme,
# "splitmix64": trial i's k-th double is output i*K + k + 1 of SplitMix64
# seeded with the seed (K = 11 for the scalar and bounds suites, 2D^2 + 2D + 1
# with D = max(dims) for the operator suite).  So trial i's draws depend on the
# seed and i alone (and on max(dims) for operator trials), and reruns and
# partial runs reproduce per-trial results exactly.  Reports of the older
# "pcg64-xor" and "philox-blocks" schemes neither merge with these nor re-run.
cfg = SuiteConfig(seed=42, trials=400)

print("== scalar suite (chains + gap checks) ==")
rep = run_scalar_suite(cfg)
print(f"  trials={rep.trials}  failures={len(rep.failures)}  wall={rep.wall_ms:.0f} ms")
for key in ("log_chain.1", "identric_chain.1", "hh_chain.3", "gap_sandwich.lower"):
    print(f"  min slack {key:<18} {rep.min_slacks[key]: .3e}")

print("\n== the same suite split across two workers ==")
left = run_scalar_suite(cfg, start=0, count=150)
right = run_scalar_suite(cfg, start=150, count=250)
merged = merge_reports(left, right)
print("  merged equals serial:", merged.min_slacks == rep.min_slacks
      and merged.failures == rep.failures)

print("\n== bounds suite ==")
rep = run_bounds_suite(SuiteConfig(seed=42, trials=200))
print(f"  trials={rep.trials}  failures={len(rep.failures)}")
worst = min(rep.min_slacks.items(), key=lambda kv: kv[1])
print(f"  tightest margin: {worst[0]} = {worst[1]:.3e}")

print("\n== operator suite (chains + representing grid) ==")
rep = run_operator_suite(SuiteConfig(seed=7, trials=50, dims=(2, 3, 5)))
print(f"  trials={rep.trials}  failures={len(rep.failures)}  draws={rep.draws}")
for key in ("op_chain.1", "representing.2", "logmean_gm"):
    print(f"  min slack {key:<16} {rep.min_slacks[key]: .3e}")

print("\n== reference values ==")
rep = reference_value_check()
print(f"  diff(4,1) = {rep.min_slacks['diff_4_1']:+.5f}   "
      f"diff(8,1) = {rep.min_slacks['diff_8_1']:+.5f}")
print(f"  sign flip observed: {rep.min_slacks['sign_flip'] > 0}   pass: {rep.passed}")

print("\nreports serialize to JSON with fixed keys; see the CLI:")
print("  meanbounds verify scalar --seed 42 --trials 1000")
