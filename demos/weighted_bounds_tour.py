"""Maximal functions and weight constants on a 64-point grid.

Compares the ball maximal function against the dyadic ones across every
system of the adjacent family, then checks the weighted norm bounds for a
few random weights. Counting measure throughout.
"""
import numpy as np

from cubeforge import (ap_constant, bmo_norm, build_adjacent_family,
                       build_labels, build_reference_hierarchy,
                       doubling_constant, lp_norm, maximal_function,
                       QuasiMetricSpace, verify_weighted_bounds)

DELTA = 1.0 / 144.0
P = 2.0
SEED = 7

space = QuasiMetricSpace.from_line(np.arange(64.0))
mu = np.ones(64)
fam = build_adjacent_family(build_labels(
    build_reference_hierarchy(space, DELTA, mode="strict")))
c_mu, c_exp = doubling_constant(space, mu)
print(f"64-point grid, K = {fam.n_systems} systems, "
      f"doubling constant {c_mu:g} (exponent {c_exp:.3f})")

rng = np.random.default_rng(SEED)
f = rng.normal(size=64)
m_ball = maximal_function(space, mu, f, "ball")
consts = fam.system(1).constants
c_a = c_mu * consts.outer_ratio ** c_exp
ratios = []
for t in range(1, fam.n_systems + 1):
    m_dy = maximal_function(space, mu, f, "dyadic", system=fam.system(t))
    ratios.append(float(np.max(m_dy / m_ball)))
print(f"\none random f: worst pointwise dyadic/ball maximal ratio per "
      f"system sits in [{min(ratios):.3f}, {max(ratios):.3f}];")
print(f"  the comparability constant allows up to C_a = {c_a:.1f}, so "
      f"there is room to spare")

omega = rng.uniform(0.5, 2.0, 64)
a_ball = ap_constant(space, mu, omega, P, "ball")
a_dy = [ap_constant(space, mu, omega, P, "dyadic", system=fam.system(t))
        for t in range(1, fam.n_systems + 1)]
print(f"\nA_p at p = {P}: ball {a_ball:.4f}, "
      f"dyadic range [{min(a_dy):.4f}, {max(a_dy):.4f}]")
print(f"BMO of f: ball {bmo_norm(space, mu, f, 'ball'):.4f}, "
      f"system-1 dyadic "
      f"{bmo_norm(space, mu, f, 'dyadic', system=fam.system(1)):.4f}")

print(f"\nweighted-norm checks for 3 random weights at p = {P}:")
for trial in range(3):
    w = rng.uniform(0.1, 10.0, 64)
    g = rng.normal(size=64)
    rep = verify_weighted_bounds(fam, mu, w, g, P)
    doob = rep.check("weighted_dyadic_norm").details["per_system"]
    worst = max(row["norm"] / row["bound"] for row in doob)
    print(f"  trial {trial}: all checks pass = {rep.passed}, "
          f"tightest weighted bound used {worst:.1%} of its budget")

norm_f = lp_norm(f, mu, omega, P)
print(f"\nfor scale: ||f||_{{L^{P:g}(omega)}} = {norm_f:.4f} on this draw")
