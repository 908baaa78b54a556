"""Seven-term refinement chain for convex functions, and the gap sandwich.

Run:  python3 demos/02_convex_refinements.py
"""

from meanbounds import (
    chain_eval,
    chain_terms,
    gap_sandwich_check,
    get_builtin,
    refined_gap_check,
)

exp = get_builtin("exp")
neg_log = get_builtin("neg-log")

# The node n = a + v(b-a) splits [a, b]; around the v-weighted average of
# the two subinterval integral means sit six nested estimates.
print("== seven-term chain, f = exp on [1, 2], v = 1/4 ==")
rep = chain_eval(exp, 1.0, 2.0, 0.25)
for label, value in zip(rep.labels, rep.values):
    print(f"  {label:<20} {value:.12f}")
print("  pass:", rep.passed, " certified convex:", rep.certified)

print("\n== same chain, f = -log on [1, 10], v = 0.9 ==")
rep = chain_eval(neg_log, 1.0, 10.0, 0.9)
for label, value in zip(rep.labels, rep.values):
    print(f"  {label:<20} {value: .12f}")
print("  pass:", rep.passed)

# The convexity gap (1-v)f(a) + vf(b) - f(node) interpolates between twice
# its half-weight value scaled by min(v,1-v) and max(v,1-v).
print("\n== convexity gap sandwich, f = exp on [1, 4] ==")
for v in (0.1, 0.25, 0.5, 0.9):
    res = gap_sandwich_check(exp, 1.0, 4.0, v)
    print(f"  v={v:4.2f}: {res.lower_bound:9.5f} <= {res.gap:9.5f} <= {res.upper_bound:9.5f}"
          f"  pass={res.passed}")

print("\n== refined lower bound on the gap ==")
res = refined_gap_check(exp, 1.0, 4.0, 0.25)
print(f"  gap {res.lhs:.6f} >= refined bound {res.rhs:.6f} >= 0  pass={res.passed}")

# Every chain term, the max-weight variants included, comes from one call that
# evaluates f once at the seven chain points.  Swapping the min-weight for the
# max-weight correction breaks the ordering: the difference of the two
# max-weight terms changes sign between instances.
print("\n== no ordering between the max-weight variants ==")
for a, b in ((4.0, 1.0), (8.0, 1.0)):
    terms = chain_terms(exp, a, b, 0.25)
    diff = terms.maxweight_lower - terms.maxweight_upper
    print(f"  (a, b) = ({a:g}, {b:g}):  difference = {diff:+.5f}")
