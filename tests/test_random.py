import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cubeforge import labeling, random_systems, streams
from cubeforge import space as space_module
from cubeforge.adjacent import build_adjacent_family, verify_covering
from cubeforge.cubes import (
    build_cube_system,
    build_partial_order,
    verify_cube_axioms,
)
from cubeforge.errors import (
    ConfigError,
    ModeViolation,
    NoNearChild,
    NotAChild,
    PreconditionFail,
    TightAmbiguity,
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
    estimate_boundary_sweep,
    estimate_selection_probability,
    realize_system,
    sample_outcome,
    scan_chain_separation,
    wilson_upper,
)
from cubeforge.space import QuasiMetricSpace, generate_space

import bruteforce
from test_analysis import int_clouds
from test_selection import cloud_labels, near_pool

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
    one = realize_system(s.labeled, sample_outcome(s, 5))
    two = realize_system(s.labeled, sample_outcome(s, 5))
    assert all(np.array_equal(p, q)
               for p, q in zip(one.level_points, two.level_points))
    for (fa, sa), (fb, sb) in zip(one.members, two.members):
        assert np.array_equal(fa, fb) and np.array_equal(sa, sb)


def test_sampled_systems_pass_axioms():
    for lab in (geoline_labels(), two_label_line()):
        s = OmegaSampler(lab, "single", seed=2)
        systems = [realize_system(lab, sample_outcome(s, i))
                   for i in range(10)]
        assert all(rep.passed for rep in verify_cube_axioms(systems))
        for i in range(10):
            assert verify_new_point_axioms(sample_outcome(s, i)).passed


def test_sampled_cloud_system_passes_axioms():
    space = generate_space({"kind": "euclidean_cloud", "n": 40, "dim": 2,
                            "seed": 17})
    lab = build_labels(build_reference_hierarchy(space, DELTA, mode="strict"))
    s = OmegaSampler(lab, "single", seed=23)
    systems = [realize_system(lab, sample_outcome(s, i)) for i in range(5)]
    assert all(rep.passed for rep in verify_cube_axioms(systems))


def test_coordinate_surgery_touches_one_level():
    """Redrawing one level's coordinate moves no other level's points."""
    s = OmegaSampler(geoline_labels(), "single", seed=3)
    omega = s.draw(0)
    redrawn = {**omega, "levels": {**omega["levels"], -2: s.draw_level(2, -2)}}
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
        near_pool(lab, -1, 1),
        lab.primary[-1 - lab.k_min][1],
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


@pytest.mark.parametrize("k, alpha, why", [
    (-3, 0, r"level -3 outside \[-2, -1\]"),
    (0, 0, r"level 0 outside \[-2, -1\]"),
    (-2, 5, r"center 5 outside \[0, 1\)"),
    (-2, -1, r"center -1 outside \[0, 1\)")])
def test_selection_estimate_refuses_levels_and_centers_outside(k, alpha, why):
    # the window is [-2, 0] and only levels -2 and -1 choose children
    s = OmegaSampler(two_label_line(), "single", seed=21)
    with pytest.raises(PreconditionFail, match=why):
        estimate_selection_probability(s, k, alpha, 0, 1000)


@pytest.mark.parametrize("n, why", [
    (999, "need at least 1000 samples, got 999"),
    (1500.5, "sample count 1500.5 is not an integer"),
    (math.nan, "sample count nan is not an integer"),
    (True, "sample count True is not an integer")])
def test_selection_estimate_refuses_sample_counts(n, why):
    for variant in ("single", "adjacent"):
        s = OmegaSampler(two_label_line(), variant, seed=21)
        with pytest.raises(PreconditionFail, match=why):
            estimate_selection_probability(s, -1, 1, 2, n)
    # numpy integers are counts too
    s = OmegaSampler(two_label_line(), "single", seed=21)
    assert estimate_selection_probability(s, -1, 1, 2, np.int64(1000)) \
        .frequency == estimate_selection_probability(s, -1, 1, 2, 1000) \
        .frequency
    assert estimate_boundary_sweep(s, [0], -2, [0.1], np.int64(1000))[0] \
        .hits == estimate_boundary_sweep(s, [0], -2, [0.1], 1000)[0].hits


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


@pytest.mark.parametrize("variant", ["adjacent", "adjacent_refined"])
def test_selection_estimate_refuses_system_indices_outside(variant):
    lab = geoline_labels()
    s = OmegaSampler(lab, variant, seed=13)
    k, K = lab.k_min, s.n_systems
    beta = int(lab.children_of(k, 0)[0])
    for t in (0, K + 1):
        with pytest.raises(PreconditionFail,
                           match=rf"system index {t} outside \[1, {K}\]"):
            estimate_selection_probability(s, k, 0, beta, 1000, t=t)
    assert estimate_selection_probability(s, k, 0, beta, 1000, t=K).t == K


def test_sampled_families_pass_covering():
    lab = two_label_line()
    for variant in ("adjacent", "adjacent_refined"):
        s = OmegaSampler(lab, variant, seed=31)
        for i in range(5):
            fam = s.realize_family(s.draw(i))
            assert fam.n_systems == 4
            assert verify_covering(fam).passed
    g = OmegaSampler(geoline_labels(), "adjacent", seed=8)
    for i in range(5):
        assert verify_covering(g.realize_family(g.draw(i))).passed


def test_family_variant_guards():
    lab = geoline_labels()
    single = OmegaSampler(lab, "single")
    with pytest.raises(ConfigError):
        single.realize_family(single.draw(0))
    with pytest.raises(ConfigError):
        sample_outcome(OmegaSampler(lab, "adjacent"), 0)


def test_degenerate_single_system_family():
    # no conflicts and single children: K = 1 and the shift is a no-op,
    # so every draw reproduces the deterministic family
    space = QuasiMetricSpace.from_line([0.0, 10.0])
    hier = NetHierarchy(space, DELTA, 0, 1, "exploratory",
                        levels=[np.array([0, 1]), np.array([0, 1])])
    lab = build_labels(hier)
    s = OmegaSampler(lab, "adjacent", seed=9)
    fam = s.realize_family(s.draw(0))
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
        full = realize_system(s.labeled, sample_outcome(s, i))
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


def tied_taus(lab, k):
    """Three taus whose eps = tau * ratio**k is exactly a distance of the
    space (smallest, middle, largest), so a strict comparison against eps
    would drop the hits that sit right on it. Where rounding leaves no
    distance reachable as a float tau * ratio**k (a cloud with one or two
    irrational gaps), the nearest taus stand in."""
    scale = lab.hierarchy.delta ** k
    dists = np.unique(lab.space.table[lab.space.table > 0]).tolist()
    taus = [d / scale for d in dists if d / scale * scale == d] or \
        [d / scale for d in dists]
    return [taus[0], taus[len(taus) // 2], taus[-1]]


def assert_sweep_matches_scan(lab, n_samples=1000):
    """Every level's sweep over every point and three tied taus counts the
    hits of a naive scan over fully sampled systems."""
    s = OmegaSampler(lab, "single", seed=13)
    d = lab.space.table.tolist()
    ks = list(lab.hierarchy.level_ks())
    taus = {k: tied_taus(lab, k) for k in ks}
    expect = {k: np.zeros((lab.space.n, 3), dtype=int) for k in ks}
    for i in range(n_samples):
        system = realize_system(s.labeled, sample_outcome(s, i))
        for k in ks:
            for t, tau in enumerate(taus[k]):
                eps = tau * lab.hierarchy.delta ** k
                for cube in system.cubes_at(k):
                    members = cube.members.tolist()
                    expect[k][bruteforce.boundary_scan(d, members, eps), t] += 1
    for k in ks:
        got = estimate_boundary_sweep(s, range(lab.space.n), k, taus[k],
                                      n_samples)
        assert [(e.x, e.tau) for e in got] == \
            [(x, tau) for x in range(lab.space.n) for tau in taus[k]]
        assert [e.hits for e in got] == expect[k].ravel().tolist()
    return expect


def test_boundary_sweep_matches_scan_on_the_line():
    expect = assert_sweep_matches_scan(geoline_labels())
    # the finest level's cubes are single points: the smallest tied tau
    # puts the closest pair on the boundary in every sample
    assert expect[1].max() == 1000
    assert sum(int(e.sum()) for e in expect.values()) > 0


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(lab=cloud_labels(deltas=(DELTA,), mode="strict"))
def test_boundary_sweep_matches_scan_on_clouds(lab):
    assert_sweep_matches_scan(lab)


@st.composite
def int_line_labels(draw):
    """Strict labels over a line of distinct integers."""
    pos = draw(st.lists(st.integers(0, 40), min_size=2, max_size=12,
                        unique=True))
    space = QuasiMetricSpace.from_line(np.asarray(pos, dtype=float))
    return build_labels(build_reference_hierarchy(space, DELTA,
                                                  mode="strict"))


def budget_for(lab, k, n_points, batch):
    """A BATCH_CELLS that makes a sweep over n_points points at level k run
    `batch` samples at a time (None: the module's own budget)."""
    if batch is None:
        return random_systems.BATCH_CELLS
    return batch * random_systems._sample_cells(lab, k, n_points)


def sweep_batched(lab, sampler, points, k, taus, batch):
    """(hits, assign): the sweep's hit counts with `batch` samples a batch,
    and the level-k assignment row it realized for each sample index."""
    real, rows = random_systems._partial_assign, {}

    def recording(sampler, samples, k):
        assign = real(sampler, samples, k)
        rows.update(zip(samples, assign))
        return assign

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random_systems, "BATCH_CELLS",
                   budget_for(lab, k, len(points), batch))
        mp.setattr(random_systems, "_partial_assign", recording)
        got = estimate_boundary_sweep(sampler, points, k, taus, 1000)
    return [e.hits for e in got], rows


def assert_batches_agree(lab, k):
    """Sweep every point of `lab` at level k over three tied taus, 1, 3 and
    the default number of samples a batch: the hits agree, and each
    sample's level-k assignment is the one of its fully realized system.
    Returns the hits."""
    points, taus = list(range(lab.space.n)), tied_taus(lab, k)
    s = OmegaSampler(lab, "single", seed=13)
    want, _ = sweep_batched(lab, s, points, k, taus, 1)
    full = [realize_system(lab, sample_outcome(s, i)).assign[k - lab.k_min]
            for i in range(1000)]
    for batch in (3, None):
        hits, rows = sweep_batched(lab, s, points, k, taus, batch)
        assert hits == want
        assert sorted(rows) == list(range(1000))
        assert all(np.array_equal(rows[i], a) for i, a in enumerate(full))
    return want


def test_batched_sweep_on_the_line():
    assert sum(assert_batches_agree(geoline_labels(), -2)) > 0


@pytest.mark.slow
@settings(max_examples=8, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,), mode="strict"),
                     int_line_labels()),
       level=st.integers(0, 8))
def test_batched_sweep_matches_one_sample_batches(lab, level):
    ks = list(lab.hierarchy.level_ks())
    assert_batches_agree(lab, ks[level % len(ks)])


def without_near_pool(lab, k, alpha):
    """Empty the near pool of the level-k center alpha, in place."""
    j = k - lab.k_min
    kids, start = lab.near_pool[j]
    sizes = np.diff(start)
    sizes[alpha] = 0
    lab.near_pool[j] = (np.delete(kids, np.arange(start[alpha],
                                                  start[alpha + 1])),
                        np.concatenate(([0], np.cumsum(sizes))))
    lab.near[j][alpha] = -1


def sweep_error(lab, sampler, batch):
    """The exception the straddle-plane sweep raises at `batch` samples a
    batch, as (type, message, attributes)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(random_systems, "BATCH_CELLS",
                   budget_for(lab, -1, 2, batch))
        with pytest.raises(Exception) as info:
            estimate_boundary_sweep(sampler, [7, 8], -1, [0.1], 1000)
    return type(info.value), str(info.value), vars(info.value)


def test_batched_sweep_raises_what_one_sample_batches_raise(monkeypatch):
    # the level-0 centers are labeled [0, 0, 1]: with center 2's near pool
    # emptied, the first sample drawing master 0 there fails its draw
    lab = straddle_plane()
    without_near_pool(lab, 0, 2)
    s = OmegaSampler(lab, "single", seed=6)
    whole = OmegaSampler(straddle_plane(), "single", seed=6)
    masters = [whole.draw_level(i, 0)["master"] for i in range(1000)]
    first_bad = masters.index(0)
    assert 0 < first_bad < 1000 // 3   # mid-batch, in every batch size
    assert max(1, random_systems.BATCH_CELLS
               // random_systems._sample_cells(lab, -1, 2)) > first_bad
    want = sweep_error(lab, s, 1)
    assert want[0] is NoNearChild and want[2]["parent_index"] == 2
    for batch in (3, None):
        assert sweep_error(lab, s, batch) == want

    # a kernel failing for one earlier sample, whose draws all succeed,
    # raises first, although the batch draws the failing sample first
    target = first_bad - 1
    h = lab.hierarchy
    mark = [h.level(j + 1)[s.draw_level(target, j)["choice"]]
            for j in (-1, 0, 1)]
    real = labeling.build_partial_order

    def flaky(space, levels, *args, **kwargs):
        drawn = [np.atleast_2d(lv) for lv in levels[:3]]
        for b in range(len(drawn[0])):
            if all(np.array_equal(lv[b], m) for lv, m in zip(drawn, mark)):
                raise TightAmbiguity(0, b, int(mark[1][0]), mark[0].tolist())
        return real(space, levels, *args, **kwargs)

    monkeypatch.setattr(labeling, "build_partial_order", flaky)
    want = sweep_error(lab, s, 1)
    assert want[0] is TightAmbiguity and want[2]["child_index"] == 0
    for batch in (3, None):
        assert sweep_error(lab, s, batch) == want
    # with every near pool in place only the kernel fails
    want = sweep_error(whole.labeled, whole, 1)
    assert want[0] is TightAmbiguity
    for batch in (3, None):
        assert sweep_error(whole.labeled, whole, batch) == want


SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_kernel_matches_numpy(seed):
    samples, levels = [0, 5, 2 ** 32 - 1], [0, 1, 3]
    states = streams.key_states(
        seed, np.array(samples, dtype=np.uint32),
        np.array(levels, dtype=np.uint32))
    jumps = streams.pcg_jumps(7)
    for a, i in enumerate(samples):
        for b, j in enumerate(levels):
            ss = np.random.SeedSequence(seed, spawn_key=(i, j))
            assert states[a, b].tolist() == \
                ss.generate_state(4, np.uint64).tolist()
            assert streams.pcg_outputs(states[a, b][None], jumps)[0] \
                .tolist() == np.random.PCG64(ss).random_raw(7).tolist()


@pytest.mark.parametrize("bound", [2, 3, 47, 3 * 2 ** 30, 2 ** 32 - 1])
def test_bounded_step_matches_generator_integers(bound):
    # 3 * 2**30 rejects a quarter of the words: 2**32 % bound = 2**30
    ss = np.random.SeedSequence(bound)
    raw = np.random.PCG64(ss).random_raw(4000)
    words = np.stack((raw & 0xFFFFFFFF, raw >> 32), axis=-1).ravel()
    values, rejected = streams.lemire(words, bound)
    want = np.random.Generator(np.random.PCG64(ss)).integers(0, bound, 3000)
    assert values[~rejected][:3000].tolist() == want.tolist()
    if bound == 3 * 2 ** 30:
        assert 0.2 < rejected.mean() < 0.3


def stacked_draws(sampler, samples, ks):
    """Per level of ks, draw_level's choices of `samples` stacked, or the
    first failing draw's (type, message) with levels outer."""
    try:
        return [np.stack([sampler.draw_level(i, k)["choice"]
                          for i in samples]).tolist() for k in ks]
    except NoNearChild as err:
        return type(err), str(err)


def batched_draws(sampler, samples, ks):
    try:
        return [c.tolist() for c in sampler._draw_choices(samples, ks)]
    except NoNearChild as err:
        return type(err), str(err)


@functools.lru_cache(maxsize=None)
def fixed_labels(name):
    """The straddle plane, the same with one near pool emptied, or a cloud
    whose coarsest draw reads no word (one center with one child, a single
    label)."""
    if name == "zero_word":
        return build_labels(build_reference_hierarchy(generate_space(
            {"kind": "euclidean_cloud", "n": 200, "dim": 2, "box": 1.0,
             "seed": 73}), DELTA, mode="strict"))
    lab = straddle_plane()
    if name == "straddle_gap":
        without_near_pool(lab, 0, 2)
    return lab


@st.composite
def line_clouds(draw):
    """Strict labels over a 1-D cloud in a box of 300: two primary labels."""
    space = generate_space({"kind": "euclidean_cloud", "dim": 1,
                            "box": 300.0, "n": draw(st.integers(2, 60)),
                            "seed": draw(st.integers(0, 99))})
    return build_labels(build_reference_hierarchy(space, DELTA,
                                                  mode="strict"))


@settings(max_examples=40, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,), mode="strict"),
                     int_line_labels(), line_clouds(),
                     st.sampled_from(["straddle", "straddle_gap",
                                      "zero_word"]).map(fixed_labels)),
       seed=st.sampled_from(SEEDS) | st.integers(0, 2 ** 64 - 1),
       first=st.sampled_from([0, 2 ** 32 - 20]), n=st.integers(1, 40))
def test_batched_draws_match_draw_level(lab, seed, first, n):
    # a batch from 2**32 - 20 mixes one- and two-word spawn keys
    sampler = OmegaSampler(lab, "single", seed=seed)
    samples, ks = range(first, first + n), list(lab.parent_ks())
    assert batched_draws(sampler, samples, ks) == \
        stacked_draws(sampler, samples, ks)
    for k in ks:
        assert batched_draws(sampler, samples, [k]) == \
            stacked_draws(sampler, samples, [k])


def test_zero_word_level_draws():
    lab = fixed_labels("zero_word")
    sampler = OmegaSampler(lab, "single", seed=3)
    assert lab.max_label == 0
    pools = sampler._single_pools[0][1]
    assert pools.shape == (1, 1) and pools[0, 0] == 1   # reads no word
    ks = list(lab.parent_ks())
    assert batched_draws(sampler, range(50), ks) == \
        stacked_draws(sampler, range(50), ks)


def test_flagged_keys_and_only_those_take_draw_level(monkeypatch):
    lab = straddle_plane()
    sampler = OmegaSampler(lab, "single", seed=11)
    samples = range(2 ** 32 - 30, 2 ** 32 + 5)
    want = {k: stacked_draws(sampler, samples, [k]) for k in lab.parent_ks()}
    real_lemire, real_draw = streams.lemire, OmegaSampler.draw_level
    flagged, called = set(), []

    def lemire(words, bound):
        # also reject every word divisible by 5, as if numpy had
        values, rejected = real_lemire(words, bound)
        rejected = rejected | (words % 5 == 0)
        flagged.update(np.flatnonzero(rejected.reshape(len(words), -1)
                                      .any(axis=1)).tolist())
        return values, rejected

    def draw_level(self, sample_index, k):
        called.append((sample_index, k))
        return real_draw(self, sample_index, k)

    monkeypatch.setattr(random_systems, "lemire", lemire)
    monkeypatch.setattr(OmegaSampler, "draw_level", draw_level)
    for k in lab.parent_ks():
        flagged.clear()
        called.clear()
        got = batched_draws(sampler, samples, [k])
        assert got == want[k]
        rows = flagged | set(range(samples.index(2 ** 32), len(samples)))
        assert called == [(samples[r], k) for r in sorted(rows)]
        assert 0 < len(flagged) < len(samples)


def test_single_selection_estimate_reads_batched_draws(monkeypatch):
    # budgets of 7 and 50 cells give chunks of 2 and 16 samples
    budgets = (7, 50, random_systems.BATCH_CELLS)
    lab = two_label_line()
    s = OmegaSampler(lab, "single", seed=21)
    picks = [int(s.draw_level(i, -1)["choice"][1]) for i in range(4000)]
    for cells in budgets:
        monkeypatch.setattr(random_systems, "BATCH_CELLS", cells)
        est = estimate_selection_probability(s, -1, 1, 2, 4000)
        assert est.frequency == picks.count(2) / 4000
    # a missing near pool raises the first failing sample's error
    gap = OmegaSampler(fixed_labels("straddle_gap"), "single", seed=6)
    want = stacked_draws(gap, range(1000), [0])
    assert want[0] is NoNearChild
    for cells in budgets:
        monkeypatch.setattr(random_systems, "BATCH_CELLS", cells)
        with pytest.raises(NoNearChild) as err:
            estimate_selection_probability(gap, 0, 0, 3, 1000)
        assert str(err.value) == want[1]


def test_boundary_sweep_rows_are_points_outer_taus_inner():
    lab = geoline_labels()
    s = OmegaSampler(lab, "single", seed=11)
    # eps = 20736 is exactly point 2's gap at level -2; point 0 sits farther
    points, taus = [2, 0, 2], [tied_taus(lab, -2)[1], 1e-6]
    got = estimate_boundary_sweep(s, points, -2, taus, 1000)
    assert [(e.x, e.k, e.tau) for e in got] == \
        [(x, -2, tau) for x in points for tau in taus]
    for est in got[:4]:
        one = estimate_boundary_probability(s, est.x, -2, est.tau, 1000)
        assert est.to_json() == one.to_json()
    assert [e.to_json() for e in got[4:]] == [e.to_json() for e in got[:2]]
    # the rows differ by point and by tau, so neither axis can be misread
    assert got[0].hits == 1000
    assert got[1].hits == got[2].hits == 0
    assert estimate_boundary_sweep(s, [], -2, taus, 1000) == []


def test_boundary_sweep_errors_match_first_pair():
    lab = geoline_labels()
    s = OmegaSampler(lab, "single", seed=1)
    grid = QuasiMetricSpace.from_line(np.arange(300.0))
    soft = OmegaSampler(build_labels(build_reference_hierarchy(
        grid, 1 / 144, mode="exploratory")), "single")
    cases = [
        (s, [0], -2, [0.0], 1000, PreconditionFail, "tau must be positive"),
        (s, [0], -2, [math.nan], 1000, PreconditionFail,
         "tau must be positive, got nan"),
        (s, [0], -2, [-math.inf], 1000, PreconditionFail,
         "tau must be positive, got -inf"),
        (s, [0], -2, [math.inf], 1000, PreconditionFail,
         "tau must be finite, got inf"),
        (s, [0], -2, [0.1], 999, PreconditionFail,
         "need at least 1000 samples, got 999"),
        # a count that is no integer used to leak range()'s TypeError
        (s, [0], -2, [0.1], 1500.5, PreconditionFail,
         "sample count 1500.5 is not an integer"),
        (s, [0], -2, [0.1], math.nan, PreconditionFail,
         "sample count nan is not an integer"),
        (s, [0], -2, [0.1], True, PreconditionFail,
         "sample count True is not an integer"),
        (s, [0], 7, [0.1], 1000, PreconditionFail, "level 7 outside"),
        (s, [4], -2, [0.1], 1000, PreconditionFail, "point 4 outside"),
        (s, [-1], -2, [0.1], 1000, PreconditionFail, "point -1 outside"),
        (OmegaSampler(lab, "adjacent"), [0], -2, [0.1], 1000, ConfigError,
         "boundary estimation uses the single variant"),
        (soft, [0], -1, [0.1], 1000, PreconditionFail,
         "boundary decay needs a strict-mode hierarchy"),
        # several faults: the first one-pair call in output order decides
        (s, [0, 4], -2, [0.1, -1.0], 1000, PreconditionFail,
         "tau must be positive, got -1.0"),
        (s, [4, 0], -2, [0.1, -1.0], 1000, PreconditionFail,
         "point 4 outside"),
        (s, [0, 9], 7, [0.1], 1000, PreconditionFail, "level 7 outside"),
        (s, [0], -2, [0.1, math.inf, math.nan], 1000, PreconditionFail,
         "tau must be finite, got inf"),
    ]
    for sampler, points, k, taus, n, err, msg in cases:
        with pytest.raises(err, match=msg):
            estimate_boundary_sweep(sampler, points, k, taus, n)
        if len(points) == len(taus) == 1:
            with pytest.raises(err, match=msg):
                estimate_boundary_probability(sampler, points[0], k,
                                              taus[0], n)


def test_empty_sweeps_still_check_their_arguments():
    # with one list empty there is no (point, tau) pair, and the sweep used
    # to return [] without checking anything
    lab = geoline_labels()
    s = OmegaSampler(lab, "single", seed=1)
    cases = [
        (s, [99, 1.5], 7, [], 5, PreconditionFail,
         "need at least 1000 samples, got 5"),
        (OmegaSampler(lab, "adjacent"), [], 7, [0.1], 5, ConfigError,
         "boundary estimation uses the single variant"),
        (s, [], 7, [0.1], 1000, PreconditionFail, "level 7 outside"),
        (s, [], -2, [0.1, -1.0], 1000, PreconditionFail,
         "tau must be positive, got -1.0"),
        (s, [0, 99], -2, [], 1000, PreconditionFail, "point 99 outside"),
        (s, [1.5], -2, [], 1000, PreconditionFail,
         "point 1.5 is not an integer"),
        (s, [], 7, [], 1000, PreconditionFail, "level 7 outside"),
    ]
    for sampler, points, k, taus, n, err, msg in cases:
        with pytest.raises(err, match=msg):
            estimate_boundary_sweep(sampler, points, k, taus, n)
    for points, taus in (([0, 3], []), ([], [0.1, 1.0]), ([], [])):
        assert estimate_boundary_sweep(s, points, -2, taus, 1000) == []


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


@pytest.mark.parametrize("tau, why", [
    (float("nan"), "positive"), (float("inf"), "finite"),
    (float("-inf"), "positive"), (0.0, "positive"), (-1.0, "positive")])
def test_chain_separation_checks_tau_first(tau, why):
    # point 10 lies 63 from its level -1 cube's complement: a tau that
    # slipped through would pass vacuously or blame the point instead
    system = grid_system()
    for x in (10, 72):
        with pytest.raises(PreconditionFail, match=f"tau must be {why}, got {tau}"):
            check_chain_separation(system, x, -1, tau, 0)


def test_chain_separation_on_sampled_system():
    grid = QuasiMetricSpace.from_line(np.arange(300.0))
    lab = build_labels(build_reference_hierarchy(grid, DELTA, mode="strict"))
    s = OmegaSampler(lab, "single", seed=6)
    system = realize_system(s.labeled, sample_outcome(s, 0))
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


@functools.lru_cache(maxsize=None)
def straddle_plane_once():
    return straddle_plane()


@st.composite
def chain_systems(draw):
    """Sampled systems of the straddle plane, or reference-center systems of
    integer grid lines and small integer clouds. The order constants
    (sep, cover) = (0.25, 2) at ratios 1/8 and 1/32 and (1, 1) at 1/8 lack
    the scale headroom; (0.25, 2) at 1/144 meets it with equality. Some
    systems then claim 8 or 1000 times the separation constant their
    centers earned: chains then fail, reach the finest level and run deep
    enough to have several close pairs."""
    kind = draw(st.sampled_from(["straddle", "grid", "cloud"]))
    if kind == "straddle":
        sampler = OmegaSampler(straddle_plane_once(), "single",
                               seed=draw(st.integers(0, 3)))
        system = realize_system(sampler.labeled, sample_outcome(
            sampler, draw(st.integers(0, 39))))
    else:
        system = reference_system(draw, kind)
    claim = draw(st.sampled_from([1.0, 8.0, 1000.0]))
    system.constants = dataclasses.replace(
        system.constants, sep_const=claim * system.constants.sep_const)
    return system


def reference_system(draw, kind):
    """A cube system over the reference centers of a drawn grid line
    (kind "grid") or integer cloud."""
    if kind == "grid":
        space = QuasiMetricSpace.from_line(
            np.arange(float(draw(st.integers(2, 120))))
            * draw(st.sampled_from([1.0, 2.0, 3.0])))
    else:
        space = draw(int_clouds())
    delta = draw(st.sampled_from([1 / 144, 1 / 32, 1 / 8]))
    sep, cover = draw(st.sampled_from([(1.0, 1.0), (0.25, 2.0)]))
    hier = build_reference_hierarchy(space, delta, mode="exploratory")
    levels = [hier.level(k) for k in hier.level_ks()]
    order = build_partial_order(space, levels, delta, sep, cover,
                                space.profile.tri_const, k_top=hier.k_min,
                                mode="exploratory")
    return build_cube_system(space, levels, order)


@settings(max_examples=120, deadline=None)
@given(system=chain_systems(), cells=st.sampled_from([1, 40, None]))
def test_chain_scan_matches_the_oracle(system, cells):
    # the scan reads the edge gaps in blocks of at most BALL_CELLS cells: a
    # point a block, a few points a block, or the module's budget
    c = system.constants
    want = bruteforce.chain_scan(
        system.space.table.tolist(), [lv.tolist() for lv in system.level_points],
        [a.tolist() for a in system.assign], system.k_min, c.tri_const,
        c.sep_const, c.cover_const, c.delta)
    with mock.patch.object(space_module, "BALL_CELLS",
                           cells or space_module.BALL_CELLS):
        chk = scan_chain_separation(system).check("admissible_chains")
    if want is None:
        assert (chk.passed, chk.checked, chk.witnesses) == (True, 0, [])
        assert "headroom" in chk.note
        return
    per_depth, checked, witnesses = want
    assert chk.details == {"per_depth": per_depth,
                           "combinations": sum(per_depth.values())}
    assert (chk.checked, chk.witnesses) == (checked, witnesses)
    assert chk.passed == (not witnesses)
