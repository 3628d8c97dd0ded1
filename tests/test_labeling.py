import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubeforge import nets, space as space_module
from cubeforge.adjacent import build_adjacent_family
from cubeforge.errors import (ConfigError, NoNearChild, NotAChild,
                              PreconditionFail)
from cubeforge.labeling import (
    LabeledHierarchy,
    SelectionOutcome,
    _greedy_labels,
    aux_cover_const,
    aux_sep_const,
    build_labels,
    select_points,
    verify_new_point_axioms,
)
from cubeforge.nets import NetHierarchy, build_reference_hierarchy
from cubeforge.random_systems import OmegaSampler
from cubeforge.space import QuasiMetricSpace, generate_space

import bruteforce
from test_nets import int_spaces, perturbed, scanned_witnesses
from test_selection import cloud_labels, loose_line_labels, near_pool

LINE4 = [0.0, 1.0, 3.0, 7.0]


def line4_space():
    pts = np.asarray(LINE4)
    return QuasiMetricSpace.from_table(np.abs(pts[:, None] - pts[None, :]),
                                       declared_tri_const=1.0)


def line4_labeled(distinguished=None):
    space = line4_space()
    hier = build_reference_hierarchy(space, 0.25, mode="exploratory",
                                     distinguished=distinguished)
    return build_labels(hier)


def geoline_labeled():
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": 1 / 144})
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    return build_labels(hier)


def test_greedy_labels_path_frozen():
    # path 0-1-2 walked in index order colors as 0, 1, 0
    assert _greedy_labels(3, [(0, 1), (1, 2)]).tolist() == [0, 1, 0]


def test_greedy_labels_match_coloring_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
                 for _ in range(int(rng.integers(0, 3 * n)))}
        got = _greedy_labels(n, sorted(pairs)).tolist()
        assert got == bruteforce.greedy_color_scan(n, sorted(pairs), range(n))


def test_line4_labels_frozen():
    lab = line4_labeled()
    assert lab.hierarchy.k_min == -2 and lab.hierarchy.k_max == 1
    assert [lv.tolist() for lv in lab.hierarchy.levels] == \
        [[0], [0, 3], [0, 1, 2, 3], [0, 1, 2, 3]]
    assert lab.order.maps[1].tolist() == [0, 0, 0, 1]
    assert lab.max_label == 0
    assert lab.max_children == 3
    assert all(not pairs for pairs in lab.neighbours)
    # siblings are numbered in ascending index order
    assert lab.duplex[1].tolist() == [[0, 1], [0, 2], [0, 3], [0, 1]]


def test_geoline_labels_frozen():
    lab = geoline_labeled()
    assert lab.max_label == 0
    assert lab.max_children == 2
    assert [lv.tolist() for lv in lab.hierarchy.levels] == \
        [[0], [0, 3], [0, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]]
    assert all(not pairs for pairs in lab.neighbours)


def test_label_soundness_on_cloud():
    space = generate_space({"kind": "euclidean_cloud", "n": 60, "dim": 2,
                            "seed": 11})
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    lab = build_labels(hier)
    total_pairs = 0
    for j, k in enumerate(lab.parent_ks()):
        labels = lab.primary[j]
        for a, b in lab.neighbours[j]:
            total_pairs += 1
            assert labels[a] != labels[b], (k, a, b)
        # duplex second components are distinct among siblings
        for alpha in range(len(lab.hierarchy.level(k))):
            kids = lab.children_of(k, alpha)
            ms = lab.duplex[j][kids, 1].tolist()
            assert sorted(ms) == list(range(1, len(kids) + 1))
        # greedy coloring agrees with the scan oracle on the real graph
        got = _greedy_labels(len(labels), lab.neighbours[j]).tolist()
        oracle = bruteforce.greedy_color_scan(len(labels), lab.neighbours[j],
                                              range(len(labels)))
        assert got == oracle
    assert lab.max_label == max(int(p.max(initial=0)) for p in lab.primary)


def loop_relations(lab):
    """The neighbours the per-point way, from the conflicts found one
    distance row and one tuple at a time: the oracle of build_labels' row
    blocks."""
    h, sep = lab.hierarchy, aux_sep_const(lab.space.profile.tri_const)
    conflicts = []
    for k in h.level_ks():
        pts, pairs = h.level(k), []
        for i in range(len(pts)):
            row = lab.space.dist_row(int(pts[i]))[pts[i + 1:]]
            for off in np.where(row < sep * h.delta ** (k - 1))[0]:
                pairs.append((i, i + 1 + int(off)))
        conflicts.append(pairs)
    neighbours = []
    for j, pmap in enumerate(lab.order.maps):
        neighbours.append(sorted({tuple(sorted((int(pmap[a]), int(pmap[b]))))
                                  for a, b in conflicts[j + 1]
                                  if pmap[a] != pmap[b]}))
    return neighbours


def assert_relations_match(lab, cells):
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(space_module, "BALL_CELLS", cells)
        got = build_labels(lab.hierarchy)
    assert got.neighbours == loop_relations(lab)
    assert all(type(v) is int for pairs in got.neighbours for pair in pairs
               for v in pair)


@settings(max_examples=40, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(1 / 144, 1 / 16)),
                     loose_line_labels()),
       cells=st.sampled_from([1, 3, 16, None]))
def test_relations_match_the_per_point_loop(lab, cells):
    # row blocks of one row, of a few, or of the module's budget give the
    # per-point loop's tuples, in its order (the lines give neighbours)
    assert_relations_match(lab, cells)


@pytest.mark.parametrize("cells", [520 * 7, None])
def test_relations_match_the_loop_on_a_build_cloud(cells):
    # 520 points: level 0 has 3 neighbour pairs, and the module's budget
    # reads 63 rows a block
    space = generate_space({"kind": "euclidean_cloud", "n": 520, "dim": 2,
                            "box": 20.0, "seed": 0})
    lab = build_labels(build_reference_hierarchy(space, 1 / 144, "strict"))
    assert [len(pairs) for pairs in lab.neighbours] == [0, 3]
    assert_relations_match(lab, cells)


def test_specific_selection_frozen():
    lab = line4_labeled()
    out = select_points(lab, {"kind": "specific", "label": [0, 1]})
    assert [lv.tolist() for lv in out.new_levels()] == \
        [[0], [0, 3], [0, 1, 2, 3], [0, 1, 2, 3]]
    out3 = select_points(lab, {"kind": "specific", "label": [0, 3]})
    assert [lv.tolist() for lv in out3.new_levels()] == \
        [[0], [2, 3], [0, 1, 2, 3], [0, 1, 2, 3]]


def test_general_near_fallback_frozen():
    # master label 1 never matches, so every center keeps its nearest child;
    # for the scale-4 center at 0 only the point 0 itself is near enough
    lab = line4_labeled()
    out = select_points(lab, {"kind": "general",
                              "master": {-2: 1, -1: 1, 0: 1}})
    assert out.new_points(-1).tolist() == [0, 3]
    assert int(out.new_points(-2)[0]) == 0


def test_general_chooser_is_used():
    lab = line4_labeled()
    out = select_points(lab, {"kind": "general",
                              "master": {-2: 0, -1: 0, 0: 0}},
                        chooser=lambda k, alpha:
                            int(lab.children_of(k, alpha)[-1]))
    # the root's last child is the far point, id 3 at level -1
    assert out.chosen[-2 - lab.k_min][0] == 1
    assert int(out.new_points(-2)[0]) == 3


def test_chooser_must_return_a_child():
    lab = line4_labeled()
    with pytest.raises(NotAChild):
        select_points(lab, {"kind": "general",
                            "master": {-2: 0, -1: 0, 0: 0}},
                      chooser=lambda k, alpha: 3)


def test_selection_is_one_to_one():
    lab = geoline_labeled()
    out = select_points(lab, {"kind": "specific", "label": [0, 2]})
    for k in lab.hierarchy.level_ks():
        pts = out.new_points(k)
        assert len(pts) == len(lab.hierarchy.level(k))
        assert len(np.unique(pts)) == len(pts)


def test_specific_refines_general():
    for lab in (line4_labeled(), geoline_labeled()):
        for l, m in [(0, 1), (0, 2), (1, 1)]:
            spec = select_points(lab, {"kind": "specific", "label": [l, m]})

            def duplex_chooser(k, alpha):
                kids = lab.children_of(k, alpha)
                j = k - lab.k_min
                if lab.primary[j][alpha] == l and m <= len(kids):
                    return int(kids[m - 1])
                return int(lab.near[j][alpha])

            gen = select_points(lab, {"kind": "general",
                                      "master": {k: l for k in lab.parent_ks()}},
                                chooser=duplex_chooser)
            for a, b in zip(spec.chosen, gen.chosen):
                assert a.tolist() == b.tolist()


def test_new_point_axioms_pass():
    for lab in (line4_labeled(), geoline_labeled()):
        for rule in ({"kind": "specific", "label": [0, 1]},
                     {"kind": "specific", "label": [0, 3]}):
            rep = verify_new_point_axioms(select_points(lab, rule))
            assert rep.passed, rep.to_json()


def test_new_point_axioms_pass_on_cloud():
    space = generate_space({"kind": "euclidean_cloud", "n": 40, "dim": 2,
                            "seed": 5})
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    lab = build_labels(hier)
    rep = verify_new_point_axioms(
        select_points(lab, {"kind": "specific", "label": [0, 2]}))
    assert rep.passed, rep.to_json()


def test_distinguished_selection_pins_point():
    lab = line4_labeled(distinguished=2)
    out = select_points(lab, {"kind": "specific_distinguished",
                              "label": [0, 2], "distinguished": 2})
    for k in lab.hierarchy.level_ks():
        assert int(out.new_points(k)[0]) == 2


def test_distinguished_rule_must_match_hierarchy():
    lab = line4_labeled(distinguished=2)
    with pytest.raises(ConfigError):
        select_points(lab, {"kind": "specific_distinguished",
                            "label": [0, 1], "distinguished": 1})
    with pytest.raises(ConfigError):
        select_points(line4_labeled(), {"kind": "specific_distinguished",
                                        "label": [0, 1], "distinguished": 2})


def test_missing_master_level_rejected():
    lab = line4_labeled()
    with pytest.raises(ConfigError):
        select_points(lab, {"kind": "general", "master": {-2: 0}})
    with pytest.raises(ConfigError):
        select_points(lab, {"kind": "nonsense"})


def test_no_near_child_raises():
    # 0.5 is inside the loose parent radius (1.0) but not near (0.25)
    pts = np.asarray([0.0, 0.5])
    space = QuasiMetricSpace.from_table(np.abs(pts[:, None] - pts[None, :]),
                                        declared_tri_const=1.0)
    hier = NetHierarchy(space=space, delta=0.25, k_min=0, k_max=1,
                        mode="exploratory",
                        levels=[np.array([0]), np.array([1])])
    lab = build_labels(hier)
    assert lab.near[0][0] == -1
    with pytest.raises(NoNearChild):
        select_points(lab, {"kind": "specific", "label": [5, 1]})


def test_single_level_hierarchy():
    space = QuasiMetricSpace.from_table(np.zeros((1, 1)),
                                        declared_tri_const=1.0)
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    lab = build_labels(hier)
    assert lab.max_label == 0 and lab.max_children == 1
    out = select_points(lab, {"kind": "specific", "label": [0, 1]})
    assert [lv.tolist() for lv in out.new_levels()] == [[0]]
    assert verify_new_point_axioms(out).passed


def test_near_children_subset():
    lab = geoline_labeled()
    for k in lab.parent_ks():
        for alpha in range(len(lab.hierarchy.level(k))):
            near = near_pool(lab, k, alpha)
            kids = lab.children_of(k, alpha)
            assert set(near) <= set(kids.tolist())
            assert lab.near[k - lab.k_min][alpha] in near


# call -> (its window as offsets from (k_min, k_max), the call at level k):
# parent levels choose children
LEVEL_CALLS = {
    "children_of": ((0, -1), lambda lab, k: lab.children_of(k, 0)),
    "pick_children": ((0, -1), lambda lab, k: lab.pick_children(k, 0, 1)),
    "draw_level": ((0, -1), lambda lab, k: OmegaSampler(
        lab, "single", seed=0).draw_level(0, k)),
    "level": ((0, 0), lambda lab, k: lab.hierarchy.level(k)),
    "new_points": ((0, 0), lambda lab, k: select_points(
        lab, {"kind": "specific", "label": [0, 1]}).new_points(k)),
}


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("call", sorted(LEVEL_CALLS))
def test_levels_outside_the_window_are_refused(call, side):
    # a level below the window used to wrap round to the finest levels
    space = generate_space({"kind": "euclidean_cloud", "n": 60, "dim": 2,
                            "seed": 0, "box": 20.0})
    lab = build_labels(build_reference_hierarchy(space, 1 / 144,
                                                 mode="strict"))
    assert (lab.k_min, lab.k_max) == (-1, 1)
    (lo_off, hi_off), fn = LEVEL_CALLS[call]
    lo, hi = lab.k_min + lo_off, lab.k_max + hi_off
    k = lo - 1 if side == "below" else hi + 1
    with pytest.raises(PreconditionFail,
                       match=rf"^level {k} outside \[{lo}, {hi}\]$"):
        fn(lab, k)
    fn(lab, lo)
    fn(lab, hi)


@settings(max_examples=150, deadline=None)
@given(space=int_spaces(), delta=st.sampled_from([0.5, 0.25]),
       block=st.integers(1, 4), data=st.data())
def test_selected_witnesses_match_scan(space, delta, block, data):
    # every level of `everything` is all points, so the chosen indices are
    # point ids: level k selects the reference net below it, perturbed
    h = build_reference_hierarchy(space, delta, mode="exploratory")
    z = perturbed(space, h.levels[1:], data)
    everything = NetHierarchy(space, delta, h.k_min, h.k_max, h.mode,
                              [np.arange(space.n)] * h.n_levels)
    out = SelectionOutcome(LabeledHierarchy(everything, order=None), {}, z)
    levels = out.new_levels()
    assert all(np.array_equal(a, b) for a, b in zip(levels, z))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "_ROW_BLOCK", block)
        rep = verify_new_point_axioms(out)
    tri = space.profile.tri_const
    sep, cov = scanned_witnesses(
        space, h.level_ks(), levels,
        lambda k: aux_sep_const(tri) * delta ** k,
        lambda k: aux_cover_const(tri) * delta ** k)
    assert rep.check("new_point_separation").witnesses == sep
    assert rep.check("new_point_covering").witnesses == cov
    assert rep.check("new_point_separation").passed == (not sep)
    assert rep.check("new_point_covering").passed == (not cov)
    assert rep.check("new_point_separation").checked == \
        sum(len(lv) * (len(lv) - 1) // 2 for lv in levels)
    assert rep.check("new_point_covering").checked == space.n * len(levels)


def test_one_system_count():
    lab = geoline_labeled()
    assert lab.n_systems == (lab.max_label + 1) * lab.max_children
    assert OmegaSampler(lab, "adjacent").n_systems == lab.n_systems
    assert build_adjacent_family(lab).n_systems == lab.n_systems
