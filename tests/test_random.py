import math

import numpy as np
import pytest
from scipy import stats

from cubeforge.adjacent import build_adjacent_family, verify_covering
from cubeforge.cubes import (
    build_cube_system,
    build_partial_order,
    verify_cube_axioms,
)
from cubeforge.errors import (
    ConfigError,
    ModeViolation,
    NotAChild,
    PreconditionFail,
)
from cubeforge.labeling import (
    SelectionOutcome,
    build_labels,
    verify_new_point_axioms,
)
from cubeforge.nets import NetHierarchy, build_reference_hierarchy
from cubeforge.random_systems import (
    OmegaSampler,
    check_chain_separation,
    estimate_boundary_probability,
    estimate_selection_probability,
    realize_system,
    sample_adjacent_family,
    sample_outcome,
    sample_system,
    scan_chain_separation,
    wilson_upper,
)
from cubeforge.space import QuasiMetricSpace, generate_space

import bruteforce

DELTA = 1.0 / 144.0


def geoline_labels(distinguished=None):
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": DELTA})
    hier = build_reference_hierarchy(space, DELTA, mode="strict",
                                     distinguished=distinguished)
    return build_labels(hier)


def two_label_line():
    """Line crafted so level -1 carries two conflicting reference points.

    Window (-2, 0); level -1 net is {0, 150} (ids 0 and 3). At level 0 the
    point 75 rides loose with the first parent while 79 is tight to the
    second (71 < 72), and the pair conflicts across that split (4 < 36), so
    the greedy labels are [0, 1] and the draw has a genuine near-children
    branch: the marginal of parent (-1, 1) is 1/4 on child 2 and 3/4 on
    child 3.
    """
    space = QuasiMetricSpace.from_line([0.0, 75.0, 79.0, 150.0])
    hier = build_reference_hierarchy(space, DELTA, mode="strict")
    return build_labels(hier)


def forced_pair():
    # two parents, each its own only child: the choice is forced, and with
    # no conflicts anywhere the label draw is degenerate too
    space = QuasiMetricSpace.from_line([0.0, 10.0])
    hier = NetHierarchy(space, DELTA, 0, 1, "exploratory",
                        levels=[np.array([0, 1]), np.array([0, 1])])
    return build_labels(hier)


def grid_system():
    space = QuasiMetricSpace.from_line(np.arange(300.0))
    hier = build_reference_hierarchy(space, DELTA, mode="strict")
    levels = [hier.level(k) for k in hier.level_ks()]
    order = build_partial_order(space, levels, DELTA, 1.0, 1.0, 1.0,
                                k_top=hier.k_min, mode="strict")
    return build_cube_system(space, levels, order)


def straddle_plane():
    """Planar nine-point space whose sampled systems admit boundary chains.

    Three coarse parents: P and Q far out on the axis, R lifted off it so it
    owns the central cluster (C, D) without crowding P or Q. The level-0
    labels come out [0, 0, 1], so P and Q are free to move on the same draw
    while R sits out. A = (0, 0) and B = (0.257, 0) are the alternate
    choices of P and Q; they straddle the cluster at just over twice the
    tight radius 1/8. The pair x, y sits 1e-4 apart between C and D: x still
    reaches C within the loose radius 2/144 while y does not, so the two
    always land in different level-1 cubes when the D slot keeps its own
    point, and in different level-0 cubes exactly when A and B are both
    chosen. Their mutual gap then falls inside the depth-1 window of the
    chain scan, which otherwise tends to come out empty.
    """
    pts = np.array([
        [-0.99, 0.0],       # 0 P
        [1.247, 0.0],       # 1 Q
        [0.13, 0.49],       # 2 R
        [0.0, 0.0],         # 3 A
        [0.257, 0.0],       # 4 B
        [0.124, 0.0],       # 5 C
        [0.14095, 0.0],     # 6 D
        [0.13785, 0.0],     # 7 x
        [0.13795, 0.0],     # 8 y
    ])
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    space = QuasiMetricSpace.from_table(d, declared_tri_const=1.0)
    return build_labels(build_reference_hierarchy(space, DELTA,
                                                  mode="strict"))


def test_sampler_descriptor_fields():
    s = OmegaSampler(geoline_labels(), "single", seed=7)
    doc = s.to_json()
    assert set(doc) == {"variant", "seed", "tau_0", "eta", "C_2"}
    assert doc["tau_0"] == 0.5
    assert doc["C_2"] == 6912.0
    assert doc["eta"] == pytest.approx(math.log(0.5) / math.log(DELTA))

    t = two_label_line()
    s4 = OmegaSampler(t, "adjacent", seed=7)
    assert s4.n_systems == 4
    assert s4.tau_0 == 0.25


def test_variant_and_headroom_validation():
    lab = geoline_labels()
    with pytest.raises(ConfigError):
        OmegaSampler(lab, "bogus")

    grid = QuasiMetricSpace.from_line(np.arange(300.0))
    coarse = build_labels(build_reference_hierarchy(grid, 1 / 50,
                                                    mode="exploratory"))
    with pytest.raises(ModeViolation):
        OmegaSampler(coarse, "single")
    mid = build_labels(build_reference_hierarchy(grid, 1 / 100,
                                                 mode="exploratory"))
    OmegaSampler(mid, "single")  # 96 * (1/100) is inside the limit
    with pytest.raises(ModeViolation):
        OmegaSampler(mid, "adjacent")


def test_draws_are_deterministic_and_order_free():
    s = OmegaSampler(geoline_labels(), "single", seed=9)
    a = s.draw(3)
    # drawing other samples in between must not disturb sample 3
    s.draw(0)
    s.draw(11)
    b = s.draw(3)
    assert a["levels"].keys() == b["levels"].keys()
    for k in a["levels"]:
        assert a["levels"][k]["master"] == b["levels"][k]["master"]
        assert np.array_equal(a["levels"][k]["choice"],
                              b["levels"][k]["choice"])


def test_sampled_system_bit_identical():
    s = OmegaSampler(geoline_labels(), "single", seed=4)
    one = sample_system(s, 5)
    two = sample_system(s, 5)
    assert all(np.array_equal(p, q)
               for p, q in zip(one.level_points, two.level_points))
    for la, lb in zip(one.cubes, two.cubes):
        for ca, cb in zip(la, lb):
            assert ca.center == cb.center
            assert np.array_equal(ca.members, cb.members)


def test_sampled_systems_pass_axioms():
    for lab in (geoline_labels(), two_label_line()):
        s = OmegaSampler(lab, "single", seed=2)
        for i in range(10):
            assert verify_cube_axioms(sample_system(s, i)).passed
            assert verify_new_point_axioms(sample_outcome(s, i)).passed


def test_sampled_cloud_system_passes_axioms():
    space = generate_space({"kind": "euclidean_cloud", "n": 40, "dim": 2,
                            "seed": 17})
    lab = build_labels(build_reference_hierarchy(space, DELTA, mode="strict"))
    s = OmegaSampler(lab, "single", seed=23)
    for i in range(5):
        assert verify_cube_axioms(sample_system(s, i)).passed


def test_coordinate_surgery_touches_one_level():
    """Redrawing one level's coordinate moves no other level's points."""
    s = OmegaSampler(geoline_labels(), "single", seed=3)
    omega = s.draw(0)
    redrawn = s.resample_level(omega, -2, 2)
    base = s.realize_outcome(omega)
    moved = s.realize_outcome(redrawn)
    assert not np.array_equal(base.new_points(-2), moved.new_points(-2))
    for j in (-3, -1, 0, 1):
        assert np.array_equal(base.new_points(j), moved.new_points(j))


def test_single_marginal_matches_enumeration():
    # chi-square at 99% against the exactly enumerated child distribution
    lab = two_label_line()
    s = OmegaSampler(lab, "single", seed=21)
    exact = bruteforce.single_draw_marginals(
        lab.children_of(-1, 1).tolist(),
        lab.near_children(-1, 1).tolist(),
        lab.label1(-1, 1),
        lab.max_label + 1)
    assert exact == {2: 0.25, 3: 0.75}
    n = 4000
    counts = {2: 0, 3: 0}
    for i in range(n):
        counts[int(s.draw_level(i, -1)["choice"][1])] += 1
    chi2 = sum((counts[c] - n * p) ** 2 / (n * p) for c, p in exact.items())
    assert chi2 < stats.chi2.ppf(0.99, df=len(exact) - 1)


def test_selection_estimate_thresholds():
    lab = two_label_line()
    s = OmegaSampler(lab, "single", seed=21)
    low = estimate_selection_probability(s, -1, 1, 2, 4000)
    assert low.frequency == pytest.approx(0.25, abs=0.03)
    assert low.passed
    high = estimate_selection_probability(s, -1, 1, 3, 4000)
    assert high.frequency == pytest.approx(0.75, abs=0.03)
    assert high.passed
    assert low.to_json()["tau_0"] == 0.25

    with pytest.raises(NotAChild):
        estimate_selection_probability(s, -1, 1, 0, 1000)
    with pytest.raises(PreconditionFail):
        estimate_selection_probability(s, -1, 1, 2, 500)


def test_forced_choice_has_frequency_one():
    s = OmegaSampler(forced_pair(), "single", seed=5)
    assert s.tau_0 == 1.0
    est = estimate_selection_probability(s, 0, 0, 0, 1000)
    assert est.frequency == 1.0
    assert est.passed


def test_adjacent_marginal_is_one_over_K():
    lab = geoline_labels()
    s = OmegaSampler(lab, "adjacent", seed=13)
    k = lab.k_min
    kids = lab.children_of(k, 0)
    assert len(kids) == 2  # both shift images land on a real ordinal
    est = estimate_selection_probability(s, k, 0, int(kids[0]), 10000, t=1)
    sigma = math.sqrt(0.5 * 0.5 / 10000)
    assert abs(est.frequency - 1.0 / s.n_systems) <= 3 * sigma
    assert est.passed


def test_sampled_families_pass_covering():
    lab = two_label_line()
    for variant in ("adjacent", "adjacent_refined"):
        s = OmegaSampler(lab, variant, seed=31)
        for i in range(5):
            fam = sample_adjacent_family(s, i)
            assert fam.n_systems == 4
            assert verify_covering(fam).passed
    g = OmegaSampler(geoline_labels(), "adjacent", seed=8)
    for i in range(5):
        assert verify_covering(sample_adjacent_family(g, i)).passed


def test_family_variant_guards():
    lab = geoline_labels()
    with pytest.raises(ConfigError):
        sample_adjacent_family(OmegaSampler(lab, "single"), 0)
    with pytest.raises(ConfigError):
        sample_system(OmegaSampler(lab, "adjacent"), 0)


def test_degenerate_single_system_family():
    # no conflicts and single children: K = 1 and the shift is a no-op,
    # so every draw reproduces the deterministic family
    space = QuasiMetricSpace.from_line([0.0, 10.0])
    hier = NetHierarchy(space, DELTA, 0, 1, "exploratory",
                        levels=[np.array([0, 1]), np.array([0, 1])])
    lab = build_labels(hier)
    fam = sample_adjacent_family(OmegaSampler(lab, "adjacent", seed=9), 0)
    det = build_adjacent_family(lab)
    assert fam.n_systems == det.n_systems == 1
    for sa, sb in zip(fam.systems, det.systems):
        assert all(np.array_equal(a, b)
                   for a, b in zip(sa.level_points, sb.level_points))


def test_boundary_estimate_against_full_realization():
    """Partial realization must agree with building the whole system."""
    lab = geoline_labels()
    s = OmegaSampler(lab, "single", seed=11)
    k, x, tau = -2, 0, 0.1
    est = estimate_boundary_probability(s, x, k, tau, 1000)
    hits = 0
    for i in range(1000):
        full = sample_system(s, i)
        members = full.cube(k, full.locate(k, x)).members
        outside = np.setdiff1d(np.arange(lab.space.n), members)
        if outside.size:
            row = lab.space.dist_row(x)
            hits += float(row[outside].min()) <= tau * DELTA ** k
    assert est.hits == hits
    assert est.p_hat == pytest.approx(hits / 1000)
    assert est.wilson_upper == pytest.approx(
        bruteforce.wilson_upper_scan(hits, 1000))
    assert 0.0 <= est.p_hat <= est.wilson_upper <= 1.0


def test_boundary_estimate_pinned_top_level():
    lab = geoline_labels(distinguished=0)
    s = OmegaSampler(lab, "single", seed=1)
    est = estimate_boundary_probability(s, 0, lab.k_min, 0.5, 1000)
    # the top-level cube is the whole space: nothing is ever near its edge
    assert est.hits == 0
    assert est.p_hat == 0.0
    assert est.passed == (est.wilson_upper <= est.bound)


def test_boundary_estimate_preconditions():
    lab = geoline_labels()
    s = OmegaSampler(lab, "single", seed=1)
    with pytest.raises(PreconditionFail):
        estimate_boundary_probability(s, 0, -2, 0.0, 1000)
    with pytest.raises(PreconditionFail):
        estimate_boundary_probability(s, 0, -2, 0.1, 999)
    with pytest.raises(PreconditionFail):
        estimate_boundary_probability(s, 0, 7, 0.1, 1000)
    for x in (4, -1, 999):   # the line has points 0..3
        with pytest.raises(PreconditionFail, match=f"point {x} outside"):
            estimate_boundary_probability(s, x, -2, 0.1, 1000)
    with pytest.raises(ConfigError):
        estimate_boundary_probability(OmegaSampler(lab, "adjacent"),
                                      0, -2, 0.1, 1000)
    grid = QuasiMetricSpace.from_line(np.arange(300.0))
    soft = build_labels(build_reference_hierarchy(grid, 1 / 144,
                                                  mode="exploratory"))
    with pytest.raises(PreconditionFail):
        estimate_boundary_probability(OmegaSampler(soft, "single"),
                                      0, -1, 0.1, 1000)


def test_wilson_upper_matches_oracle():
    for hits, n in [(0, 1000), (7, 1000), (250, 1000), (1000, 1000)]:
        assert wilson_upper(hits, n) == pytest.approx(
            bruteforce.wilson_upper_scan(hits, n))


def test_chain_separation_vacuous_and_guards():
    system = grid_system()
    # point 72 sits one grid step from its level -1 cube's complement
    assert system.locate(-1, 72) == 0
    rep = check_chain_separation(system, 72, -1, 0.01, 0)
    assert rep.passed
    assert rep.checks[0].checked == 0  # depth 0: no pairs to compare

    with pytest.raises(PreconditionFail):
        check_chain_separation(system, 10, -1, 0.01, 0)  # deep inside
    with pytest.raises(PreconditionFail):
        check_chain_separation(system, 72, -1, 0.01, 1)  # tau too large
    with pytest.raises(PreconditionFail):
        check_chain_separation(system, 72, 1, 1e-5, 1)  # walk exits window


def test_chain_separation_on_sampled_system():
    grid = QuasiMetricSpace.from_line(np.arange(300.0))
    lab = build_labels(build_reference_hierarchy(grid, DELTA, mode="strict"))
    s = OmegaSampler(lab, "single", seed=6)
    system = sample_system(s, 0)
    sep = system.constants.sep_const
    tau = sep / 12.0 * 0.999
    hit_any = False
    for x in range(grid.n):
        members = system.cube(-1, system.locate(-1, x)).members
        outside = np.setdiff1d(np.arange(grid.n), members)
        if outside.size == 0:
            continue
        gap = float(grid.dist_row(x)[outside].min())
        if gap < tau * DELTA ** -1:
            rep = check_chain_separation(system, x, -1, tau, 0)
            assert rep.passed
            hit_any = True
    assert hit_any  # the scan found genuine boundary points


def test_scan_counts_grid_boundary_points():
    rep = scan_chain_separation(grid_system())
    chk = rep.check("admissible_chains")
    assert rep.passed
    # the level -1 cubes are [0..72], [73..215], [216..299]; eleven points
    # on each side of the three internal boundaries fall within
    # tau(0) * delta**-1 = 12 of their complement, deeper depths never fire
    assert chk.details == {"per_depth": {0: 44}, "combinations": 44}
    assert chk.checked == 0  # depth-0 walks visit one level: no pairs


def test_scan_vacuous_when_gaps_dwarf_thresholds():
    space = QuasiMetricSpace.from_line([0.0, 10.0])
    levels = [np.array([0, 1]), np.array([0, 1])]
    order = build_partial_order(space, levels, DELTA, 0.25, 2.0, 1.0,
                                k_top=0, mode="exploratory")
    rep = scan_chain_separation(build_cube_system(space, levels, order))
    chk = rep.check("admissible_chains")
    assert rep.passed
    assert chk.details == {"per_depth": {}, "combinations": 0}


def test_scan_notes_missing_scale_headroom():
    space = QuasiMetricSpace.from_line(np.arange(300.0))
    hier = build_reference_hierarchy(space, 1 / 100, mode="exploratory")
    levels = [hier.level(k) for k in hier.level_ks()]
    # 18 * cover_const * ratio = 0.36 exceeds sep_const = 0.25 so the scan
    # has nothing to say, yet the order itself builds: 12 * 2 / 100 = 0.24
    # stays under the separation constant
    order = build_partial_order(space, levels, 1 / 100, 0.25, 2.0, 1.0,
                                k_top=hier.k_min, mode="exploratory")
    rep = scan_chain_separation(build_cube_system(space, levels, order))
    chk = rep.check("admissible_chains")
    assert rep.passed
    assert chk.checked == 0
    assert "headroom" in chk.note


def test_scan_straddle_plane_handpicked_outcome():
    lab = straddle_plane()
    assert lab.max_label == 1
    assert lab.max_children == 3
    assert lab.primary[1].tolist() == [0, 0, 1]
    assert lab.children_of(0, 0).tolist() == [0, 3]
    assert lab.children_of(0, 1).tolist() == [1, 4]
    assert lab.children_of(0, 2).tolist() == [2, 5, 6]
    assert lab.children_of(1, 6).tolist() == [6, 7, 8]

    # root keeps P; P moves to A, Q moves to B, R stays; level 1 all stay
    chosen = [np.array([0]), np.array([3, 4, 2]), np.arange(7)]
    out = SelectionOutcome(labeled=lab, rule={"kind": "handpicked"},
                           chosen=chosen)
    assert verify_new_point_axioms(out).passed
    system = realize_system(lab, out)
    # x (id 7) and y (id 8) split at level 1 and stay split at level 0
    assert [c.members.tolist() for c in system.cubes_at(0)] == [
        [0, 1, 3, 5, 7], [4, 6, 8], [2]]
    assert system.cube(1, system.locate(1, 7)).center == 5
    assert system.cube(1, system.locate(1, 8)).center == 6

    rep = scan_chain_separation(system)
    chk = rep.check("admissible_chains")
    assert rep.passed
    # x and y are admissible down to depth 1 at level 0 (their gap 1e-4
    # beats tau(1) = sep * delta / 12) and at depth 0 on levels 0 and 1;
    # C and D add one depth-0 hit each at level 0
    assert chk.details == {"per_depth": {0: 6, 1: 2}, "combinations": 8}
    assert chk.checked == 2


def test_scan_straddle_plane_sampled_systems():
    lab = straddle_plane()
    s = OmegaSampler(lab, "single", seed=0)
    agg: dict = {}
    for i in range(40):
        out = sample_outcome(s, i)
        assert verify_new_point_axioms(out).passed
        rep = scan_chain_separation(realize_system(lab, out))
        assert rep.passed
        per_depth = rep.check("admissible_chains").details["per_depth"]
        for n, c in per_depth.items():
            agg[n] = agg.get(n, 0) + c
    # seed 0: eight of the forty draws move both straddle hosts and reach
    # depth 1; the rest contribute depth-0 hits unless the D slot drifts
    assert agg == {0: 104, 1: 16}
