"""Walk the reference construction end to end on the geometric line.

Builds the space, the net hierarchy, the greedy labels, and the adjacent
family, printing what each stage decided. Everything is deterministic, so
the output doubles as a readable snapshot of the construction.
"""
import numpy as np

from cubeforge import (build_adjacent_family, build_labels,
                       build_reference_hierarchy, generate_space,
                       verify_covering, verify_cube_axioms)

DELTA = 1.0 / 144.0

space = generate_space({"kind": "geometric_line", "levels": 3, "delta": DELTA})
coords = np.asarray([space.table[0, i] for i in range(space.n)])
print(f"space: {space.n} points on a line, positions {coords.tolist()}")
print(f"  triangle constant {space.profile.tri_const}, "
      f"diameter {space.profile.diam:g}")

hier = build_reference_hierarchy(space, DELTA, mode="strict")
print(f"\nhierarchy window: levels {hier.k_min} .. {hier.k_max}")
for k in hier.level_ks():
    pts = hier.level(k).tolist()
    print(f"  level {k:+d} (scale {DELTA ** k:12g}): net {pts}")

lab = build_labels(hier)
print(f"\nlabels: L = {lab.max_label} (largest primary label), "
      f"M = {lab.max_children} (largest sibling count)")
for k in lab.parent_ks():
    kids = [lab.children_of(k, a).tolist()
            for a in range(len(hier.level(k)))]
    print(f"  level {k:+d}: children per parent {kids}")

fam = build_adjacent_family(lab)
print(f"\nadjacent family: K = {fam.n_systems} systems, "
      f"covering constant {fam.covering_const:g}")
sys1 = fam.system(1)
for k in sys1.level_ks():
    members = [c.members.tolist() for c in sys1.cubes_at(k)]
    print(f"  system 1, level {k:+d} cubes: {members}")

axioms = [rep.passed for rep in verify_cube_axioms(fam.systems)]
cover = verify_covering(fam)
print(f"\ncube axioms pass on all {len(axioms)} systems: {all(axioms)}")
for check in cover.checks:
    print(f"  covering/{check.name}: "
          f"{'ok' if check.passed else 'FAIL'} ({check.checked} checked)")
