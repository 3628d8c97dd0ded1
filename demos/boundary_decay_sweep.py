"""Monte Carlo sweep of the cube-boundary probability on the line.

Draws random cube systems from the seeded sampler and measures how often a
point lands within tau of its cube's edge, tightening tau by decades. The
Wilson upper confidence bound is printed next to the theoretical decay
envelope C_2 * tau**eta so the slack is visible.
"""
from cubeforge import (OmegaSampler, build_labels, build_reference_hierarchy,
                       estimate_boundary_sweep, generate_space)

DELTA = 1.0 / 144.0
N = 2000
SEED = 404

space = generate_space({"kind": "geometric_line", "levels": 3, "delta": DELTA})
lab = build_labels(build_reference_hierarchy(space, DELTA, mode="strict"))
sampler = OmegaSampler(lab, "single", seed=SEED)
doc = sampler.to_json()
print(f"sampler: tau_0 = {doc['tau_0']}, eta = {doc['eta']:.4f}, "
      f"C_2 = {doc['C_2']:g}, N = {N} draws per row\n")

header = f"{'x':>3} {'k':>3} {'tau':>8} {'hits':>6} {'p_hat':>8} " \
         f"{'wilson':>10} {'envelope':>12} {'ok':>4}"
print(header)
print("-" * len(header))
for est in estimate_boundary_sweep(sampler, range(space.n), lab.k_min,
                                   (0.1, 0.01, 0.001), N):
    print(f"{est.x:>3} {est.k:>3} {est.tau:>8g} {est.hits:>6} "
          f"{est.p_hat:>8.4f} {est.wilson_upper:>10.5f} "
          f"{est.bound:>12.4g} {'yes' if est.passed else 'NO':>4}")

print("\nhits are rare by design: the envelope leaves orders of magnitude")
print("of slack at this scale, and the sweep documents how much.")
