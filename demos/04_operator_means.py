"""Operator means on SPD matrices and the Loewner-order chain.

Run:  python3 demos/04_operator_means.py
"""

import numpy as np

from meanbounds import SpdMatrix, loewner_leq, logmean_gm_check, operator_chain, representing_chain
from meanbounds import operators as om
from meanbounds.harness import random_spd

A = SpdMatrix([[1.0, 0.0], [0.0, 4.0]])
B = SpdMatrix([[9.0, 0.0], [0.0, 1.0]])

# Commuting (here diagonal) matrices reduce to elementwise scalar means.
print("== diagonal pair, v = 1/2 ==")
print("  geometric  ", np.diag(om.weighted_geometric(A, B, 0.5).entries))
print("  logarithmic", np.diag(om.weighted_logarithmic(A, B, 0.5).entries))
print("  arithmetic ", np.diag(om.weighted_arithmetic(A, B, 0.5).entries))

# The chain geometric <= split mix <= logarithmic <= avg <= arithmetic
# holds in the Loewner order: every consecutive difference is PSD.  All five
# terms share one congruence frame, so each link is decided on the spectrum
# of A^{-1/2} B A^{-1/2}; a verdict reports its tightest eigenvalue.
rng = np.random.default_rng(2024)
X = random_spd(rng, 5)
Y = random_spd(rng, 5)
print("\n== operator chain on a random 5x5 pair, v = 0.3 ==")
rep = operator_chain(X, Y, 0.3)
for (left, right), vd in zip(zip(rep.labels, rep.labels[1:]), rep.verdicts):
    print(f"  {left:>20} <= {right:<20} margin {vd.margin:+.3e} "
          f"at eigenvalue {vd.eigenvalue:.3e} holds={vd.holds}")
print("  chain pass:", rep.passed)

# The matrix-domain test reaches the same verdict; its number is the smallest
# eigenvalue of term_3 - term_2, on the scale of A, not a spectral margin.
vd = loewner_leq(rep.terms[1], rep.terms[2])
print("  loewner_leq(split mix, logarithmic):", vd.holds, " min eig:", vd.min_eig_of_difference)

# A failing comparison, for contrast.
print("\n== a non-comparable pair ==")
vd = loewner_leq(np.diag([2.0, 0.5]), np.diag([1.0, 1.0]))
print("  diag(2, .5) <= diag(1, 1):", vd.holds, " min eig:", vd.min_eig_of_difference)

# Underneath sits a scalar chain in the representing functions: evaluating
# it on the spectrum is exactly what the congruence lift does.
print("\n== representing-function chain at t = 2, v = 1/4 ==")
rep = representing_chain(2.0, 0.25)
for label, value in zip(rep.labels, rep.values):
    print(f"  {label:<22} {value:.12f}")

# The second link of that chain rests on log-mean >= geometric-mean at
# the pair (x^2, 1).
print("\n== log mean vs geometric mean of (x^2, 1) ==")
for x in (0.1, 0.99, 2.0, 50.0):
    res = logmean_gm_check(x)
    print(f"  x={x:6.2f}:  {res.lhs:12.6f} >= {res.rhs:10.6f}  pass={res.passed}")
