import dataclasses
import itertools
import json
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubeforge import cubes as cubes_module, space as space_module
from cubeforge.adjacent import build_adjacent_family, index_to_pair
from cubeforge.cubes import (
    SystemConstants,
    CubeSystem,
    ParentMaps,
    _edge_gaps,
    build_cube_system,
    build_partial_order,
    close_level,
    tight_flags,
    verify_cube_axioms,
)
from cubeforge.errors import (
    ConfigError,
    CubeforgeError,
    ModeViolation,
    NoParent,
    PreconditionFail,
    TightAmbiguity,
)
from cubeforge.labeling import build_labels, select_points, selected_order
from cubeforge.nets import (NetHierarchy, build_reference_hierarchy,
                            check_mode)
from cubeforge.random_systems import OmegaSampler
from cubeforge.space import QuasiMetricSpace, generate_space

import bruteforce
from test_selection import cloud_labels

LINE4 = [0.0, 1.0, 3.0, 7.0]


def line4_space(positions=LINE4):
    pts = np.asarray(positions, dtype=float)
    table = np.abs(pts[:, None] - pts[None, :])
    return QuasiMetricSpace.from_table(table, declared_tri_const=1.0)


def order_flags(space, levels, order):
    """Each level's tight flags of a parent order over `levels`, derived
    from distances by the one derivation (`cubes.tight_flags`)."""
    return [tight_flags(space, order.constants, order.k_top + j, coarse,
                        fine, m)
            for j, (coarse, fine, m) in enumerate(zip(levels, levels[1:],
                                                      order.maps))]


def links_of(system):
    """The (parent map, tight flags) per level of a system's one column,
    its flags derived from distances (`cubes.tight_flags`)."""
    return [(m, tight_flags(system.space, system.constants, k, coarse, fine,
                            m))
            for k, m, coarse, fine in zip(system.level_ks(), system.maps,
                                          system.level_points,
                                          system.level_points[1:])]


def rebuilt(system, level_points=None, maps=None, members=None,
            assign=None):
    """A one-column system (`CubeSystem.of_levels`) with the per-level
    arrays of `system` but for those given, so the verifier and to_json
    read the same edited arrays. Systems may share their arrays, so
    nothing is written in place."""
    return CubeSystem.of_levels(
        system.space, system.k_min, system.constants, system.mode,
        level_points or system.level_points, maps or system.maps,
        list(zip(assign or system.assign, members or system.members)))


def relist(system, k, lists):
    """`system` with the member lists `lists` on level k, as a new (flat,
    start) pair (`rebuilt`)."""
    sizes = [len(m) for m in lists]
    members = list(system.members)
    members[k - system.k_min] = (
        np.array([p for m in lists for p in m], dtype=int),
        np.concatenate(([0], np.cumsum(sizes, dtype=int))))
    return rebuilt(system, members=members)


def line4_order():
    space = line4_space()
    # ids [0, 3] are the points {0, 7}; next level is everything
    levels = [np.array([0, 3]), np.array([0, 1, 2, 3])]
    order = build_partial_order(space, levels, delta=0.25, sep_const=1.0,
                                cover_const=1.0, tri_const=1.0, k_top=-1,
                                mode="exploratory")
    return space, levels, order


def test_parent_example_frozen():
    space, levels, order = line4_order()
    # tight threshold 2 at scale 4: 0 and 1 bind to 0, 7 to itself;
    # 3 misses both and falls loose to the first center within 4
    assert order.maps[0].tolist() == [0, 0, 0, 1]
    assert order_flags(space, levels, order)[0].tolist() == [True, True,
                                                             False, True]


def test_parent_matches_scan_oracle():
    space, levels, order = line4_order()
    d = [[abs(a - b) for b in LINE4] for a in LINE4]
    expected = bruteforce.parent_scan(d, [0, 3], [0, 1, 2, 3],
                                      tight_thr=2.0, loose_thr=4.0)
    got = list(zip(order.maps[0].tolist(),
                   order_flags(space, levels, order)[0].tolist()))
    assert got == expected


def test_tight_ambiguity_raises():
    pts = np.array([0.0, 1.0])
    table = np.abs(pts[:, None] - pts[None, :])
    space = QuasiMetricSpace.from_table(table, declared_tri_const=1.0)
    levels = [np.array([0, 1]), np.array([0, 1])]
    # tight threshold 2 at scale 4 catches both centers for either child
    with pytest.raises(TightAmbiguity):
        build_partial_order(space, levels, delta=0.25, sep_const=1.0,
                            cover_const=1.0, tri_const=1.0, k_top=-1,
                            mode="exploratory")


def test_no_parent_raises():
    space = line4_space()
    levels = [np.array([0]), np.array([3])]  # point 7 is 7 away, radius 4
    with pytest.raises(NoParent):
        build_partial_order(space, levels, delta=0.25, sep_const=1.0,
                            cover_const=1.0, tri_const=1.0, k_top=-1,
                            mode="exploratory")


def test_strict_mode_needs_scale_headroom():
    space, levels, _ = line4_order()
    with pytest.raises(ModeViolation):
        build_partial_order(space, levels, delta=0.25, sep_const=1.0,
                            cover_const=1.0, tri_const=1.0, k_top=-1,
                            mode="strict")


@pytest.mark.parametrize("mode", ["Strict", "fast", None])
def test_unknown_modes_are_refused(mode):
    # "Strict" used to skip the strict headroom check and be stored as is
    space, levels, order = line4_order()
    with pytest.raises(ConfigError, match="mode must be one of"):
        build_partial_order(space, levels, delta=0.25, sep_const=1.0,
                            cover_const=1.0, tri_const=1.0, k_top=-1,
                            mode=mode)
    with pytest.raises(ConfigError, match="mode must be one of"):
        check_mode(mode, 1.0, 0.25)
    doc = build_cube_system(space, levels, order).to_json()
    with pytest.raises(ConfigError, match="mode must be one of"):
        CubeSystem.from_json({**doc, "mode": mode}, space)
    doc = build_reference_hierarchy(space, 0.25, mode="exploratory").to_json()
    with pytest.raises(ConfigError, match="mode must be one of"):
        NetHierarchy.from_json({**doc, "mode": mode}, space)


def test_cube_members_frozen():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    coarse = system.cubes_at(-1)
    assert [c.members.tolist() for c in coarse] == [[0, 1, 2], [3]]
    assert [c.center for c in coarse] == [0, 3]
    fine = system.cubes_at(0)
    assert [c.members.tolist() for c in fine] == [[0], [1], [2], [3]]
    assert system.constants.inner_const == pytest.approx(1 / 3)
    assert system.constants.outer_const == pytest.approx(2.0)


def test_members_match_closure_oracle():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    assign = bruteforce.descendant_closure([m.tolist() for m in order.maps],
                                           finest_size=4)
    finest = levels[-1].tolist()
    for j, k in enumerate(system.level_ks()):
        for alpha, cube in enumerate(system.cubes_at(k)):
            expected = sorted(finest[i] for i in range(4) if assign[j][i] == alpha)
            assert cube.members.tolist() == expected


def test_finest_level_must_cover():
    space, levels, order = line4_order()
    for finest in ([0, 1, 2], [0, 1, 1, 3], [0, 1, 2, 4]):
        with pytest.raises(PreconditionFail,
                           match="finest level must enumerate"):
            build_cube_system(space, [levels[0], np.array(finest)], order)


@st.composite
def batched_levels(draw):
    """A small integer cloud and B parent lists and child lists of one
    length each: every sample its own child list, or one for all."""
    pts = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                        min_size=2, max_size=10, unique=True))
    space = QuasiMetricSpace.from_coords(np.asarray(pts, dtype=float))
    n, b = space.n, draw(st.integers(1, 4))
    sizes = draw(st.integers(1, n)), draw(st.integers(1, n))
    perms = st.permutations(range(n))
    parents, children = ([draw(perms)[:size] for _ in range(b)]
                         for size in sizes)
    if draw(st.booleans()):
        children = [children[0]] * b
    return space, np.array(parents), np.array(children)


@settings(max_examples=150, deadline=None)
@given(case=batched_levels(), sep=st.sampled_from([0.5, 2.0, 3.0]),
       cover=st.sampled_from([1.5, 3.0, 1e9]))
# sample 1 finds no parent for point 2 and sample 2 two tight parents for
# point 0: the batch raises sample 1's NoParent
@example(case=(QuasiMetricSpace.from_coords(np.array(
    [[0.0, 0.0], [1, 0], [3, 0], [4, 0], [2, 0], [0, 1]])),
    np.array([[0, 2], [0, 1], [0, 1]]), np.array([[0], [2], [0]])),
    sep=3.0, cover=1.5)
def test_batched_order_matches_one_sample_at_a_time(case, sep, cover):
    # each sample's map is its own call's, and with its derived tight flags
    # it is parent_scan's; a batch raises what the first failing sample's
    # call raises
    space, parents, children = case

    def link(levels):
        try:
            return build_partial_order(space, levels, 1.0 / 2, sep, cover,
                                       1.0, k_top=0, mode="exploratory")
        except CubeforgeError as err:
            return err

    alone = [link([p, c]) for p, c in zip(parents, children)]
    batched = link([parents, children])
    failing = [err for err in alone if isinstance(err, CubeforgeError)]
    if failing:
        assert type(batched) is type(failing[0])
        assert (str(batched), vars(batched)) == (str(failing[0]),
                                                 vars(failing[0]))
        return
    assert batched.maps[0].tolist() == [o.maps[0].tolist() for o in alone]
    # tight radius sep * (1/2)**0 / (2 * 1.0), loose radius cover
    d = space.table.tolist()
    flags = order_flags(space, [parents, children], batched)[0]
    assert [list(zip(m, t)) for m, t in zip(batched.maps[0].tolist(),
                                            flags.tolist())] == [
        bruteforce.parent_scan(d, p.tolist(), c.tolist(), sep / 2.0, cover)
        for p, c in zip(parents, children)]


def shared_system(space, levels, order, closed, pieces):
    """build_cube_system's system with every level passed through
    close_level with one `closed` dict and `pieces` list kept across calls,
    the way the family builder shares levels between its systems."""
    system = build_cube_system(space, levels, order)
    pairs = [pieces[close_level(closed, pieces, len(pts), a)]
             for pts, a in zip(system.level_points, system.assign)]
    return rebuilt(system, assign=[a for a, _ in pairs],
                   members=[m for _, m in pairs])


def test_shared_closure_matches_fresh_builds():
    # systems closed with one `closed` dict equal fresh builds; a level is
    # shared exactly when its cube count and assign array agree, whatever
    # its centers and finer levels (the fifth system has other coarse
    # centers and another finest list than the first, and the same coarse
    # partition; the sixth adds an empty cube to the first's)
    space, levels, order = line4_order()

    def parents(m):
        return ParentMaps(k_top=-1, constants=order.constants,
                          mode="exploratory", maps=[np.array(m)])

    cases = [(levels, order), (levels, parents([0, 1, 0, 1])),
             ([levels[0], np.array([1, 0, 2, 3])], parents([0, 1, 0, 1])),
             (levels, parents([0, 1, 0, 1])),
             ([np.array([1, 2]), np.array([1, 0, 2, 3])], order),
             ([np.array([0, 3, 1]), levels[1]], order)]
    closed, pieces = {}, []
    shared = [shared_system(space, lv, o, closed, pieces) for lv, o in cases]
    for system, (lv, o) in zip(shared, cases):
        fresh = build_cube_system(space, lv, o)
        assert json.dumps(system.to_json()) == json.dumps(fresh.to_json())
        assert [a.tolist() for a in system.assign] \
            == [a.tolist() for a in fresh.assign]
    assert shared[1].members[1] is shared[0].members[1]
    assert shared[1].members[0] is not shared[0].members[0]
    assert shared[2].members[0] is not shared[1].members[0]
    assert shared[3].members[0] is shared[1].members[0]
    assert shared[3].assign[0] is shared[1].assign[0]
    assert shared[4].members[0] is shared[0].members[0]
    assert shared[4].assign[0] is shared[0].assign[0]
    assert shared[4].members[1] is shared[2].members[1]
    assert shared[5].members[0] is not shared[0].members[0]
    assert len(closed) == 6


def test_locate_and_chain():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    assert system.locate(-1, 2) == 0
    assert system.locate(-1, 3) == 1
    assert [int(a[3]) for a in system.assign] == [1, 3]
    assert system.cube(-1, 1).center == 3


def boundary_zone(system, k, index, eps):
    """The members of a cube within eps (inclusive) of its complement, read
    off the edge-distance kernel."""
    members = system.cube(k, index).members
    inside = np.isin(system.space.points(), members)
    return members[_edge_gaps(system.space.dist_rows(members), inside, True,
                              eps)]


@pytest.mark.parametrize("k", [-2, 1])
def test_level_outside_window_is_refused(k):
    # levels -2 and 1 lie just outside [-1, 0]; a negative position must not
    # wrap round to the finest level
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    for query in (lambda: system.cube(k, 0), lambda: system.cubes_at(k),
                  lambda: system.locate(k, 0),
                  lambda: boundary_zone(system, k, 0, 1.0)):
        with pytest.raises(PreconditionFail,
                           match=rf"level {k} outside \[-1, 0\]"):
            query()


@pytest.mark.parametrize("index", [-1, 2])
def test_cube_index_outside_level_is_refused(index):
    # level -1 holds 2 cubes: index -1 used to wrap round to the last cube's
    # center with an empty member slice, and 2 raised a bare IndexError
    system = build_cube_system(*line4_order())
    for query in (lambda: system.cube(-1, index),
                  lambda: boundary_zone(system, -1, index, 1.0)):
        with pytest.raises(PreconditionFail,
                           match=rf"cube {index} outside \[0, 2\)"):
            query()


@pytest.mark.parametrize("point", [-1, 4])
def test_locate_refuses_a_point_outside_the_space(point):
    # point -1 used to wrap round to point 3, and 4 raised a bare IndexError
    system = build_cube_system(*line4_order())
    with pytest.raises(PreconditionFail,
                       match=rf"point {point} outside \[0, 4\)"):
        system.locate(0, point)


def test_axioms_pass_on_line_example():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    rep = verify_cube_axioms([system])[0]
    assert rep.passed, rep.to_json()


def test_axioms_pass_strict_geometric_line():
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": 1 / 144})
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    order = build_partial_order(space, hier.levels, delta=hier.delta,
                                sep_const=1.0, cover_const=1.0,
                                tri_const=space.profile.tri_const,
                                k_top=hier.k_min, mode="strict")
    system = build_cube_system(space, hier.levels, order)
    rep = verify_cube_axioms([system])[0]
    assert rep.passed, rep.to_json()
    # every cube keeps at least one member in strict mode
    for flat, start in system.members:
        assert (np.diff(start) >= 1).all()


def test_axioms_pass_strict_cloud():
    space = generate_space({"kind": "euclidean_cloud", "n": 40, "dim": 2,
                            "seed": 7})
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    order = build_partial_order(space, hier.levels, delta=hier.delta,
                                sep_const=1.0, cover_const=1.0,
                                tri_const=space.profile.tri_const,
                                k_top=hier.k_min, mode="strict")
    system = build_cube_system(space, hier.levels, order)
    rep = verify_cube_axioms([system])[0]
    assert rep.passed, rep.to_json()
    for flat, start in system.members:
        assert (np.diff(start) >= 1).all()


def test_partition_flags_corruption():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    system = relist(system, -1, [[0, 2], [3]])  # orphan point 1
    rep = verify_cube_axioms([system])[0]
    chk = rep.check("partition")
    assert not chk.passed
    assert (-1, 1, 0) in chk.witnesses


def test_partition_flags_duplicates():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    # 1 now sits in both cubes
    system = relist(system, -1, [[0, 1, 2], [3, 1]])
    rep = verify_cube_axioms([system])[0]
    chk = rep.check("partition")
    assert not chk.passed
    assert (-1, 1, 2) in chk.witnesses


def test_nesting_flags_corruption():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    # the cube {0, 3} straddles both coarse cubes
    system = relist(system, 0, [[0], [1], [2], [0, 3]])
    rep = verify_cube_axioms([system])[0]
    assert rep.check("nesting").witnesses == [(-1, 0, 3, [0, 1])]


def test_boundary_zone_frozen():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    # cube {0,1,3}: only the point 3 (id 2) is within 4 of the outside
    assert boundary_zone(system, -1, 0, 4.0).tolist() == [2]
    assert boundary_zone(system, -1, 0, 3.0).tolist() == []
    assert boundary_zone(system, -1, 0, 7.0).tolist() == [0, 1, 2]


def test_boundary_zone_matches_scan_oracle():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    d = [[abs(a - b) for b in LINE4] for a in LINE4]
    for eps in (0.5, 1.0, 3.0, 4.0, 6.0, 7.0):
        got = boundary_zone(system, -1, 0, eps).tolist()
        assert got == bruteforce.boundary_scan(d, [0, 1, 2], eps)


def test_boundary_zone_whole_space_empty():
    space = line4_space()
    levels = [np.array([0]), np.array([0, 1, 2, 3])]
    order = build_partial_order(space, levels, delta=0.25, sep_const=1.0,
                                cover_const=1.0, tri_const=1.0, k_top=-2,
                                mode="exploratory")
    system = build_cube_system(space, levels, order)
    assert system.cube(-2, 0).members.size == space.n
    assert boundary_zone(system, -2, 0, 100.0).size == 0


def test_build_is_deterministic():
    a = build_cube_system(*line4_order())
    b = build_cube_system(*line4_order())
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_json_roundtrip():
    space, levels, order = line4_order()
    system = build_cube_system(space, levels, order)
    blob = json.dumps(system.to_json())
    back = CubeSystem.from_json(json.loads(blob), space)
    assert back.k_min == system.k_min and back.k_max == system.k_max
    assert back.constants.to_json() == system.constants.to_json()
    for k in system.level_ks():
        for a, b in zip(system.cubes_at(k), back.cubes_at(k)):
            assert a.center == b.center
            assert a.members.tolist() == b.members.tolist()
    assert back.locate(-1, 2) == system.locate(-1, 2)


def test_shared_json_keys_levels_on_their_whole_content():
    # same k, centers and grouped members, but different cube bounds: the
    # level entries differ, the parent entries do not
    a = line4_system()
    b = relist(line4_system(), -1, [[0, 1], [2, 3]])
    assert a.level_points[0].tolist() == b.level_points[0].tolist()
    assert a.members[0][0].tolist() == b.members[0][0].tolist()
    doc_a, doc_b = a.to_json(), b.to_json()
    assert doc_a["levels"][0] != doc_b["levels"][0]
    assert doc_a["levels"][1:] == doc_b["levels"][1:]
    assert doc_a["parents"] == doc_b["parents"]


@pytest.mark.parametrize("bad", [-1, 4])
def test_json_rejects_ids_outside_space(bad):
    # -1 used to wrap to the last point, and 4 raised a bare IndexError
    space, levels, order = line4_order()
    for lv, cube, field, want in ((1, 2, "members", "member"),
                                  (0, 1, "center", "center")):
        doc = build_cube_system(space, levels, order).to_json()
        doc["levels"][lv]["cubes"][cube][field] = [bad] \
            if field == "members" else bad
        with pytest.raises(ConfigError, match=rf"level {lv - 1}, cube {cube}: "
                           rf"{want} id {bad} outside \[0, 4\)"):
            CubeSystem.from_json(doc, space)


@pytest.mark.parametrize("bad", [1.5, -0.5])
def test_json_rejects_non_integer_ids(bad):
    # 1.5 used to load as point 1, leaving point 2 in no cube
    space, levels, order = line4_order()
    for lv, cube, field, want in ((1, 2, "members", "member"),
                                  (0, 1, "center", "center")):
        doc = build_cube_system(space, levels, order).to_json()
        doc["levels"][lv]["cubes"][cube][field] = [bad] \
            if field == "members" else bad
        with pytest.raises(ConfigError, match=rf"level {lv - 1}, cube {cube}: "
                           rf"{want} id {bad} is not an integer"):
            CubeSystem.from_json(doc, space)


def cloud_system_doc():
    """System 1 of the strict family of a 40-point box-20 cloud, levels
    -1..1 of 1, 36 and 40 cubes, as a document, and its space."""
    space = generate_space({"kind": "euclidean_cloud", "n": 40, "dim": 2,
                            "seed": 3, "box": 20.0})
    fam = build_adjacent_family(build_labels(build_reference_hierarchy(
        space, 1 / 144)))
    return json.loads(json.dumps(fam.system(1).to_json())), space


@pytest.mark.parametrize("edit, want", [
    (lambda d: d["parents"].clear(), "level 0: 0 parent entries for 3 levels"),
    (lambda d: d["parents"].append(d["parents"][0]),
     "level 2: 3 parent entries for 3 levels"),
    (lambda d: d["parents"][0]["map"].pop(),
     "level 0, cube 35: map lists 35 entries for 36 cubes"),
    (lambda d: d["parents"][1]["tight"].append(True),
     "level 1, cube 40: tight lists 41 entries for 40 cubes"),
    (lambda d: d["parents"][0]["map"].__setitem__(1, 10 ** 6),
     r"level 0, cube 1: parent id 1000000 outside \[0, 1\)"),
    (lambda d: d["parents"][1]["map"].__setitem__(3, -1),
     r"level 1, cube 3: parent id -1 outside \[0, 36\)"),
    (lambda d: d["parents"][1]["tight"].__setitem__(2, "x"),
     "level 1, cube 2: tight flag 'x' is not a bool"),
    (lambda d: d["parents"][0]["tight"].__setitem__(0, 1),
     "level 0, cube 0: tight flag 1 is not a bool"),
    (lambda d: d["parents"][1]["tight"].__setitem__(
        6, not d["parents"][1]["tight"][6]),
     "level 1, cube 6: tight flag (True|False) contradicts its parent "
     "distance"),
    (lambda d: d["parents"][1]["map"].__setitem__(3, "x"),
     "level 1, cube 3: parent id 'x' is not an integer"),
    (lambda d: d["parents"][0]["map"].__setitem__(2, None),
     "level 0, cube 2: parent id None is not an integer"),
    (lambda d: d["levels"][1]["cubes"][4].__setitem__("center", "x"),
     "level 0, cube 4: center id 'x' is not an integer"),
    (lambda d: d["levels"][2]["cubes"][5]["members"].__setitem__(0, True),
     "level 1, cube 5: member id True is not an integer"),
    (lambda d: d["parents"][0].pop("map"),
     "level 0 parent entry lists no 'map'"),
    (lambda d: d["parents"][1].pop("tight"),
     "level 1 parent entry lists no 'tight'"),
    (lambda d: d["levels"][1]["cubes"][7].pop("members"),
     "level 0, cube 7 lists no 'members'")])
def test_json_refuses_parent_entries_that_contradict_its_levels(edit, want):
    # each used to load, and verify_cube_axioms then raised a bare
    # IndexError (or, for -1, read the last cube as the parent); a flipped
    # tight flag loaded and was written back as given, True loaded as point
    # 1, and a string, a null or a missing key raised a bare TypeError or
    # KeyError
    doc, space = cloud_system_doc()
    assert verify_cube_axioms([CubeSystem.from_json(doc, space)])[0].passed
    edit(doc)
    with pytest.raises(ConfigError, match=f"^{want}$"):
        CubeSystem.from_json(doc, space)


def test_json_refuses_a_system_linked_under_another_a0():
    # the four-point line declares A0 = 1; linked with A0 = 2, its document
    # lists c1 = c0/(3·4) and C1 = 4·C0, and used to be refused with "level
    # 0, cube 1: tight flag False contradicts its parent distance"
    space, levels, _ = line4_order()
    order = build_partial_order(space, levels, delta=0.25, sep_const=1.0,
                                cover_const=1.0, tri_const=2.0, k_top=-1,
                                mode="exploratory")
    doc = json.loads(json.dumps(build_cube_system(space, levels,
                                                  order).to_json()))
    with pytest.raises(ConfigError, match=re.escape(
            "constants c1=0.08333333333333333 and C1=4.0 disagree with the "
            "c1=0.3333333333333333 and C1=2.0 that c0, C0 and the space's "
            "A0=1.0 give")):
        CubeSystem.from_json(doc, space)
    doc["constants"].pop("C1")
    with pytest.raises(ConfigError, match="^constants lists no 'C1'$"):
        CubeSystem.from_json(doc, space)
    # the same line linked under its own A0 reads back to its document
    doc = json.loads(json.dumps(build_cube_system(
        space, levels, line4_order()[2]).to_json()))
    assert CubeSystem.from_json(doc, space).to_json() == doc


def test_json_reads_whole_float_ids():
    # a JSON float with an integer value is an id, as an int is
    doc, space = cloud_system_doc()
    want = CubeSystem.from_json(doc, space).to_json()
    doc["parents"][1]["map"][3] = float(doc["parents"][1]["map"][3])
    doc["levels"][2]["cubes"][5]["members"][0] *= 1.0
    assert CubeSystem.from_json(doc, space).to_json() == want


def with_entry(m, i, value):
    """A copy of the map m with entry i set to value."""
    m = m.copy()
    m[i] = value
    return m


@pytest.mark.parametrize("edit, want", [
    (lambda maps: maps[:1], "level 1: 1 parent entries for 3 levels"),
    (lambda maps: [maps[0], maps[1][:-3]],
     "level 1, cube 37: map lists 37 entries for 40 cubes"),
    (lambda maps: [maps[0], with_entry(maps[1], 5, 1000)],
     r"level 1, cube 5: parent id 1000 outside \[0, 36\)"),
    (lambda maps: [maps[0], with_entry(maps[1], 3, -1)],
     r"level 1, cube 3: parent id -1 outside \[0, 36\)")])
def test_build_refuses_links_that_do_not_fit_its_levels(edit, want):
    # the levels of the 40-point cloud hold 1, 36 and 40 points; each order
    # used to raise a bare IndexError, or for -1 bincount's ValueError
    space = cloud_system_doc()[1]
    lab = build_labels(build_reference_hierarchy(space, 1 / 144))
    levels, order = lab.hierarchy.levels, lab.order
    built = build_cube_system(space, levels, order)
    assert verify_cube_axioms([built])[0].passed
    with pytest.raises(ConfigError, match=f"^{want}$"):
        build_cube_system(space, levels, dataclasses.replace(
            order, maps=edit(order.maps)))


def test_json_refuses_a_level_count_off_its_window():
    doc, space = cloud_system_doc()
    doc["k_max"] = 2
    with pytest.raises(ConfigError,
                       match="^level 2: 3 levels listed for k = -1..2$"):
        CubeSystem.from_json(doc, space)


def test_json_loads_an_empty_member_list():
    space, levels, order = line4_order()
    doc = build_cube_system(space, levels, order).to_json()
    doc["levels"][1]["cubes"][2]["members"] = []
    back = CubeSystem.from_json(doc, space)
    assert back.cube(0, 2).members.tolist() == []
    assert back.assign[1].tolist() == [0, 1, -1, 3]
    assert "partition" in failing(verify_cube_axioms([back])[0])


def test_json_last_listed_member_wins():
    space, levels, order = line4_order()
    doc = build_cube_system(space, levels, order).to_json()
    doc["levels"][0]["cubes"][0]["members"] = [0, 1, 2, 3]  # 3 in both cubes
    back = CubeSystem.from_json(doc, space)
    assert back.assign[0].tolist() == [0, 0, 0, 1]
    assert back.cube(-1, 0).members.tolist() == [0, 1, 2, 3]


def test_cubes_are_built_on_demand_and_frozen():
    system = build_cube_system(*line4_order())
    cube = system.cube(-1, 0)
    again = system.cubes_at(-1)[0]
    assert again is not cube and again.center == cube.center == 0
    assert again.members.tolist() == cube.members.tolist() == [0, 1, 2]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cube.members = cube.members[:1]


def test_constants_json_keys():
    c = SystemConstants(delta=0.25, tri_const=1.0, sep_const=1.0,
                        cover_const=1.0)
    assert set(c.to_json()) == {"c0", "C0", "c1", "C1"}


# -- failure paths of the remaining checks ---------------------------------


def line4_system(positions=None):
    """The line4 system; `positions` moves the points of its space after
    the build, so the cubes keep their members but not their geometry."""
    system = build_cube_system(*line4_order())
    if positions is not None:
        system.space = line4_space(positions)
    return system


def failing(rep):
    return {c.name: c.witnesses for c in rep.checks if not c.passed}


def test_checked_counts_frozen_on_line4():
    rep = verify_cube_axioms([line4_system()])[0]
    # 4 points on 2 levels; 4 fine cubes under 1 coarse level; 2 + 4 centers
    assert [(c.name, c.checked) for c in rep.checks] == [
        ("partition", 8), ("nesting", 4),
        ("ball_sandwich_inner", 6), ("ball_sandwich_outer", 6),
        ("descendant_ball_sets", 4), ("descendant_ball_radii", 4),
        ("descendant_center_proximity", 4), ("topology", 0)]


def test_checked_counts_cover_all_level_pairs():
    space = generate_space({"kind": "geometric_line", "levels": 5,
                            "delta": 1 / 144})
    rep = verify_cube_axioms([strict_system(space)])[0]
    # level sizes 1, 2, ..., 6, 6 over 6 points: each fine cube is checked
    # against every coarser level, 0*1 + 1*2 + ... + 5*6 + 6*6 = 106 pairs
    assert [c.checked for c in rep.checks] == [42, 106, 27, 27, 106, 106, 106, 0]


def test_inner_sandwich_flags_member_moved_out():
    system = line4_system()
    # the point 1 lies within 4/3 of the center 0 but now sits with 7
    system = relist(system, -1, [[0, 2], [1, 3]])
    rep = verify_cube_axioms([system])[0]
    assert failing(rep) == {"ball_sandwich_inner": [(-1, 0, 1, 1.0)]}


def test_outer_sandwich_and_descendants_flag_far_member():
    # the point 3 (id 2) moves to 9: 9 >= 8 from its coarse center 0
    rep = verify_cube_axioms([line4_system([0.0, 1.0, 9.0, 7.0])])[0]
    assert failing(rep) == {
        "ball_sandwich_outer": [(-1, 0, 2, 9.0)],
        "descendant_ball_sets": [(-1, 0, 2)],
        "descendant_ball_radii": [(-1, 0, 2, 11.0, 8.0)],
        "descendant_center_proximity": [(-1, 0, 2, 9.0)],
    }


def test_outer_sandwich_names_first_listed_far_member():
    # the points 9 and 10 both leave the outer ball around 0; the witness
    # is the first of them in member-list order, not the smallest id
    system = relist(line4_system([0.0, 9.0, 10.0, 7.0]), -1,
                    [[2, 1, 0], [3]])
    rep = verify_cube_axioms([system])[0]
    assert rep.check("ball_sandwich_outer").witnesses == [(-1, 0, 2, 10.0)]
    assert rep.check("descendant_center_proximity").witnesses == [
        (-1, 0, 1, 9.0), (-1, 0, 2, 10.0)]


def test_descendant_sets_flag_ball_leaking_past_ancestor():
    # the fine center 7 stays within 8 of its ancestor 0, but its outer
    # ball of radius 2 reaches the point 8.5, which is 8.5 from 0
    rep = verify_cube_axioms([line4_system([0.0, 1.0, 7.0, 8.5])])[0]
    assert failing(rep) == {
        "descendant_ball_sets": [(-1, 0, 2)],
        "descendant_ball_radii": [(-1, 0, 2, 9.0, 8.0)],
    }


def test_descendant_radii_flag_moved_center():
    system = line4_system()
    # fine cube 1 (ancestor center 0) is listed at the point 7: 7 + 2 > 8.
    # The centers are the sandwich's too, so the cube {1} is now centered
    # at 7: its member 1 sits 6 away (outer radius 2 at level 0) and the
    # point 7 sits inside its inner ball without being a member
    system = rebuilt(system, level_points=[system.level_points[0],
                                           np.array([0, 3, 2, 3])])
    rep = verify_cube_axioms([system])[0]
    assert failing(rep) == {
        "ball_sandwich_inner": [(0, 1, 3, 0.0)],
        "ball_sandwich_outer": [(0, 1, 1, 6.0)],
        "descendant_ball_radii": [(-1, 0, 1, 9.0, 8.0)],
    }


# -- per-check agreement with the naive scan ------------------------------


def strict_system(space):
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    order = build_partial_order(space, hier.levels, delta=hier.delta,
                                sep_const=1.0, cover_const=1.0,
                                tri_const=space.profile.tri_const,
                                k_top=hier.k_min, mode="strict")
    return build_cube_system(space, hier.levels, order)


def scan_verdicts(system):
    d = [system.space.dist_row(x).tolist() for x in system.space.points()]
    levels = [[(int(c.center), c.members.tolist()) for c in system.cubes_at(k)]
              for k in system.level_ks()]
    c = system.constants
    return bruteforce.cube_axioms_scan(
        d, levels, [m.tolist() for m in system.maps], system.k_min,
        system.delta, c.inner_const, c.outer_const, c.tri_const)


def verdicts(systems):
    """Each system's check verdicts, from one family call."""
    return [{c.name: c.passed for c in rep.checks}
            for rep in verify_cube_axioms(systems)]


def corrupt(system, kind, rng):
    """Move, drop or repeat one member on a random level with two cubes."""
    ks = [k for k in system.level_ks() if len(system.cubes_at(k)) > 1]
    k = ks[rng.integers(len(ks))]
    lists = [c.members.tolist() for c in system.cubes_at(k)]
    src, dst = rng.choice(len(lists), size=2, replace=False)
    p = int(rng.choice(lists[src]))
    if kind != "duplicate":  # straddle: still a partition, but p moves
        lists[src].remove(p)
    if kind != "orphan":
        lists[dst].append(p)
    return relist(system, k, lists)


SCAN_SPACES = [
    lambda: generate_space({"kind": "geometric_line", "levels": 5,
                            "delta": 1 / 144}),
    lambda: generate_space({"kind": "euclidean_cloud", "n": 30, "dim": 2,
                            "seed": 3}),
    lambda: generate_space({"kind": "euclidean_cloud", "n": 24, "dim": 1,
                            "seed": 5}),
    lambda: QuasiMetricSpace.from_line(np.arange(16.0) ** 1.5),
]


@pytest.mark.parametrize("make_space", SCAN_SPACES)
def test_axioms_match_scan_oracle(make_space):
    system = strict_system(make_space())
    got, = verdicts([system])
    assert got == scan_verdicts(system)
    assert all(got.values())


@pytest.mark.parametrize("kind", ["duplicate", "orphan", "straddle"])
@pytest.mark.parametrize("make_space", SCAN_SPACES)
def test_corrupted_axioms_match_scan_oracle(make_space, kind):
    rng = np.random.default_rng(11)
    space = make_space()
    systems = [corrupt(strict_system(space), kind, rng) for _ in range(6)]
    broke = set()
    for system, got in zip(systems, verdicts(systems)):
        assert got == scan_verdicts(system), kind
        broke |= {name for name, ok in got.items() if not ok}
    assert ("partition" in broke) == (kind != "straddle")
    assert broke


def box20_family():
    from test_adjacent import cloud_family  # test_adjacent imports this module
    return cloud_family(box=20.0)


def test_family_reports_equal_lone_reports():
    # one call checks each distinct level and level pair once; corrupted
    # systems share most arrays with intact ones, so a memo keyed on less
    # than the bytes a check reads would hand them an intact system's report
    systems = list(box20_family().systems)
    rng = np.random.default_rng(7)
    for t, kind in ((0, "duplicate"), (3, "orphan"), (4, "straddle"),
                    (9, "straddle")):
        systems[t] = corrupt(systems[t], kind, rng)
    moved = list(systems[6].level_points)
    moved[1] = np.roll(moved[1], 1)
    systems[6] = rebuilt(systems[6], level_points=moved)
    relinked = systems[8]   # finest cube 0 hangs under the farthest center
    coarse, fine = relinked.level_points[-2:]
    link = relinked.maps[-1].copy()
    link[0] = np.argmax(relinked.space.dist_rows([fine[0]], coarse))
    systems[8] = rebuilt(relinked, maps=[*relinked.maps[:-1], link])
    reports = verify_cube_axioms(systems)
    assert len(reports) == len(systems) > 10
    assert sum(not rep.passed for rep in reports) == 6
    for system, rep, got in zip(systems, reports, verdicts(systems)):
        assert rep.to_json() == verify_cube_axioms([system])[0].to_json()
        assert got == scan_verdicts(system)


def test_memo_keys_on_level_and_constants():
    # equal arrays on another level k or under other constants meet other
    # radii and give other witnesses, so one call must not share their checks
    space = line4_space([0.0, 1.0, 9.0, 7.0])
    _, levels, order = line4_order()
    systems = []
    for k_top, cover in ((-1, 1.0), (0, 1.0), (-1, 2.0)):
        consts = dataclasses.replace(order.constants, cover_const=cover)
        system = build_cube_system(space, levels, dataclasses.replace(
            order, k_top=k_top, constants=consts))
        systems.append(relist(system, k_top, [[0, 2], [3]]))
    reports = [rep.to_json() for rep in verify_cube_axioms(systems)]
    assert reports == [verify_cube_axioms([s])[0].to_json() for s in systems]
    assert len({json.dumps(rep) for rep in reports}) == 3


def test_descendant_checks_keyed_on_the_coarse_level():
    # levels -2 and -1 both hold one cube centered at 0, so both pairs with
    # level 0 read equal arrays; only level -1's outer radius 8 is left by
    # the fine balls around 7 and 8.5
    space = line4_space([0.0, 1.0, 7.0, 8.5])
    order = ParentMaps(k_top=-2,
                       constants=SystemConstants(0.25, 1.0, 1.0, 1.0),
                       mode="exploratory",
                       maps=[np.zeros(1, int), np.zeros(4, int)])
    system = build_cube_system(space, [[0], [0], [0, 1, 2, 3]], order)
    assert failing(verify_cube_axioms([system])[0]) == {
        "ball_sandwich_outer": [(-1, 0, 3, 8.5)],
        "descendant_ball_sets": [(-1, 0, 2), (-1, 0, 3)],
        "descendant_ball_radii": [(-1, 0, 2, 9.0, 8.0), (-1, 0, 3, 10.5, 8.0)],
        "descendant_center_proximity": [(-1, 0, 3, 8.5)]}


def test_distance_rows_gathered_once_per_center_list(monkeypatch):
    fam = box20_family()
    space = fam.space
    real, calls = space.dist_rows, []

    def counting(ids, cols=None):
        calls.append(np.asarray(ids).tobytes())
        return real(ids, cols)

    monkeypatch.setattr(space, "dist_rows", counting)
    assert all(rep.passed for rep in verify_cube_axioms(fam.systems))
    distinct = {p.tobytes() for s in fam.systems for p in s.level_points}
    assert len(distinct) < sum(len(s.level_points) for s in fam.systems)
    assert sorted(calls) == sorted(distinct)


def test_distance_rows_leave_after_their_last_system(monkeypatch):
    # a center list's rows are dropped after the last system reading them,
    # so fewer blocks are alive at once than there are distinct lists
    fam = box20_family()
    space = fam.space
    real, blocks, peak = space.dist_rows, [], [0]

    def tracking(ids, cols=None):
        rows = real(ids, cols)
        blocks.append(weakref.ref(rows))
        peak[0] = max(peak[0], sum(b() is not None for b in blocks))
        return rows

    monkeypatch.setattr(space, "dist_rows", tracking)
    assert all(rep.passed for rep in verify_cube_axioms(fam.systems))
    distinct = {p.tobytes() for s in fam.systems for p in s.level_points}
    assert len(blocks) == len(distinct)
    assert peak[0] < len(distinct)


def test_cube_axioms_peak_memory():
    # a 1000-point unit-box cloud (seed 0, strict): K = 935 systems over
    # [1, 935, 3, 1] distinct center lists. Each list's rows are read once,
    # so the three 935-center lists of level 1 and the finest list are held
    # together (29 MiB); the call peaked at 47.26 MiB under tracemalloc
    # (numpy 2.4.6) with the transients it added on top of them
    space = generate_space({"kind": "euclidean_cloud", "n": 1000, "dim": 2,
                            "seed": 0, "box": 1.0})
    fam = build_adjacent_family(build_labels(build_reference_hierarchy(
        space, 1 / 144)))
    systems = fam.systems
    assert [len(c) for c in fam.centers] == [1, 935, 3, 1]
    tracemalloc.start()
    try:
        reports = verify_cube_axioms(systems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reports)
    assert peak <= 33 * 2 ** 20


def test_systems_of_two_spaces_are_refused():
    with pytest.raises(PreconditionFail, match="share one space"):
        verify_cube_axioms([line4_system(),
                            line4_system([0.0, 1.0, 3.0, 8.0])])


# -- one call over many systems against one call per system ----------------


def rotate_centers(system, rng):
    """Roll the center list of a random level with two cubes or more, or
    move the one center of the top level to the next point id."""
    level_points = list(system.level_points)
    ks = [j for j, p in enumerate(level_points) if p.size > 1]
    if ks:
        j = ks[rng.integers(len(ks))]
        level_points[j] = np.roll(level_points[j], 1)
    else:
        level_points[0] = (level_points[0] + 1) % system.space.n
    return rebuilt(system, level_points=level_points)


def relink(system, rng):
    """Hang a random finest cube under the farthest center one level up."""
    coarse, fine = system.level_points[-2:]
    link = system.maps[-1].copy()
    i = rng.integers(fine.size)
    link[i] = np.argmax(system.space.dist_rows([fine[i]], coarse))
    return rebuilt(system, maps=[*system.maps[:-1], link])


FAULTS = {"duplicate": lambda s, rng: corrupt(s, "duplicate", rng),
          "orphan": lambda s, rng: corrupt(s, "orphan", rng),
          "straddle": lambda s, rng: corrupt(s, "straddle", rng),
          "centers": rotate_centers, "relink": relink}


def altered(system, rng, fault=None, shift=0):
    """A copy of `system` on levels shifted by `shift`, with `fault`; its
    arrays stay shared with `system` wherever the fault leaves them."""
    system = dataclasses.replace(system, k_min=system.k_min + shift,
                                 k_max=system.k_max + shift)
    multi = any(p.size > 1 for p in system.level_points)
    if fault is None or (fault in ("duplicate", "orphan", "straddle")
                         and not multi) \
            or (fault == "relink" and len(system.level_points) < 2):
        return system
    return FAULTS[fault](system, rng)


@st.composite
def checked_systems(draw):
    """The systems of a fixed, pinned or sampled family on a small integer
    cloud, some of them level-shifted or faulty."""
    if draw(st.booleans()):   # sampling needs strict mode's headroom
        lab = draw(cloud_labels(deltas=(1 / 144,), mode="strict"))
        sampler = OmegaSampler(
            lab, draw(st.sampled_from(["adjacent", "adjacent_refined"])),
            seed=draw(st.integers(0, 9)))
        systems = sampler.realize_family(sampler.draw(0)).systems
    else:
        lab = draw(cloud_labels())
        systems = build_adjacent_family(
            lab, distinguished=lab.hierarchy.distinguished).systems
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    faults = st.sampled_from([None, None, None, *FAULTS])
    return [altered(s, rng, draw(faults), draw(st.sampled_from([0, 0, 1])))
            for s in systems]


@settings(max_examples=60, deadline=None)
@given(systems=checked_systems(), cells=st.sampled_from([1, 40, 400, None]))
def test_one_call_equals_one_call_per_system(systems, cells):
    # the row checks take a leading axis over a group's center lists, in
    # blocks of at most BALL_CELLS distances; each list's witnesses must come
    # back to its own systems, whatever the blocks
    with mock.patch.object(space_module, "BALL_CELLS",
                           cells or space_module.BALL_CELLS):
        together = [rep.to_json() for rep in verify_cube_axioms(systems)]
    assert together == [verify_cube_axioms([s])[0].to_json()
                        for s in systems]


def test_every_witness_kind_comes_back_to_its_system(monkeypatch):
    systems = box20_family().systems
    rng = np.random.default_rng(7)
    # every other intact system on levels shifted by one, where its balls
    # leave its ancestors': groups of many lists, each with its witnesses
    systems = [altered(s, rng, fault, shift) for s, (fault, shift) in zip(
        systems, [(f, 0) for f in FAULTS] + [("relink", 1)]
        + [(None, t % 2) for t in range(len(systems))])]
    monkeypatch.setattr(space_module, "BALL_CELLS", 3 * systems[0].space.n)
    reports = [rep.to_json() for rep in verify_cube_axioms(systems)]
    assert reports == [verify_cube_axioms([s])[0].to_json() for s in systems]
    broke = {c["name"] for rep in reports for c in rep["checks"]
             if not c["passed"]}
    assert broke == {name for name, _ in cubes_module._AXIOMS} - {"topology"}


def test_row_checks_run_once_per_group(monkeypatch):
    # a verify benchmark cloud: 75 systems over the levels [1, 75, 100], whose
    # coarsest center differs per system. A row check runs once per group of
    # keys that differ only in the center list of the level with more
    # distinct lists, never once per system
    space = generate_space({"kind": "euclidean_cloud", "n": 100, "dim": 2,
                            "box": 20.0, "seed": 72})
    systems = build_adjacent_family(build_labels(build_reference_hierarchy(
        space, 1 / 144, mode="strict"))).systems
    calls = {"_sandwich": 0, "_descendants": 0}
    for name in calls:
        def counting(*args, real=getattr(cubes_module, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(cubes_module, name, counting)
    assert all(rep.passed for rep in verify_cube_axioms(systems))
    depth = len(systems[0].level_points)
    lists = [len({s.level_points[j].tobytes() for s in systems})
             for j in range(depth)]
    assert (len(systems), lists) == (75, [75, 3, 1])
    sandwich = {(k, flat.tobytes(), start.tobytes()) for s in systems
                for k, (flat, start) in zip(s.level_ks(), s.members)}
    descendants = set()
    for s in systems:
        for a, b in itertools.combinations(range(depth), 2):
            fewer = min((a, b), key=lambda j: (lists[j], j))
            descendants.add((a, b, s.level_points[fewer].tobytes(),
                             *(m.tobytes() for m in s.maps[a:b])))
    assert calls == {"_sandwich": len(sandwich),
                     "_descendants": len(descendants)}
    assert sum(calls.values()) < 15


# -- parent links and closure against the naive scans -----------------------


GRID_OR_CLOUD = st.one_of(cloud_labels(), cloud_labels(sides=(3,)))


def shuffled(levels, seed):
    rng = np.random.default_rng(seed)
    return [rng.permutation(lv) for lv in levels]


def expected_order(space, levels, delta, sep, cover, k_top):
    """parent_scan per child and level pair: the (parent, tight) pairs, or
    the error build_partial_order owes (type, level, child index) at the
    first pair with a tie, else at the first pair with an orphan."""
    d = space.table.tolist()
    tri = space.profile.tri_const
    links = []
    for j in range(len(levels) - 1):
        k = k_top + j
        tight_thr = sep * delta ** k / (2.0 * tri)
        loose_thr = cover * delta ** k
        row = []
        for c in levels[j + 1].tolist():
            try:
                row += bruteforce.parent_scan(d, levels[j].tolist(), [c],
                                              tight_thr, loose_thr)
            except AssertionError:
                row.append("tie")
        if "tie" in row:
            return TightAmbiguity, k, row.index("tie")
        if None in row:
            return NoParent, k, row.index(None)
        links.append(row)
    return links


@settings(max_examples=80, deadline=None)
@given(lab=GRID_OR_CLOUD, sep=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
       cover=st.sampled_from([0.05, 0.3, 1.0, 2.0]),
       seed=st.integers(0, 2 ** 16))
def test_parent_order_matches_scan_on_clouds(lab, sep, cover, seed):
    h = lab.hierarchy
    levels = shuffled(h.levels, seed)
    want = expected_order(lab.space, levels, h.delta, sep, cover, h.k_min)
    args = (lab.space, levels, h.delta, sep, cover,
            lab.space.profile.tri_const, h.k_min, "exploratory")
    if isinstance(want, tuple):
        with pytest.raises(want[0]) as err:
            build_partial_order(*args)
        assert (err.value.level, err.value.child_index) == want[1:]
        return
    order = build_partial_order(*args)
    assert [list(zip(m.tolist(), t.tolist())) for m, t in zip(
        order.maps, order_flags(lab.space, levels, order))] == want


def assert_closure_matches(system, levels, order):
    finest = levels[-1].tolist()
    assign = bruteforce.descendant_closure([m.tolist() for m in order.maps],
                                           finest_size=len(finest))
    for j, k in enumerate(system.level_ks()):
        want = [sorted(p for p, a in zip(finest, assign[j]) if a == alpha)
                for alpha in range(len(levels[j]))]
        assert [c.members.tolist() for c in system.cubes_at(k)] == want
        assert system.level_points[j].tolist() == levels[j].tolist()


def closure_cases(lab, seed):
    """(levels, order) pairs whose systems share every level, only the
    finer ones, or none: the hierarchy, shuffled copies of it, and the
    selections of its family, whose levels share their coarse centers but
    differ below them."""
    h, c = lab.hierarchy, lab.order.constants
    every = shuffled(h.levels, seed)
    for levels in (h.levels, [every[0], *h.levels[1:]], every):
        yield levels, build_partial_order(
            lab.space, levels, h.delta, c.sep_const, c.cover_const,
            c.tri_const, h.k_min, mode="exploratory")
    for t in range(1, (lab.max_label + 1) * lab.max_children + 1):
        rule = {"kind": "specific",
                "label": list(index_to_pair(t, lab.max_children))}
        try:
            levels = select_points(lab, rule).new_levels()
            yield levels, selected_order(lab, levels)
        except CubeforgeError:
            continue


@settings(max_examples=40, deadline=None)
@given(lab=GRID_OR_CLOUD, seed=st.integers(0, 2 ** 16))
def test_closure_matches_scan_fresh_and_shared(lab, seed):
    # every system of one closed dict must close as a fresh build does
    closed, pieces = {}, []
    for levels, order in [*closure_cases(lab, seed), *closure_cases(lab, seed)]:
        for system in (build_cube_system(lab.space, levels, order),
                       shared_system(lab.space, levels, order, closed,
                                     pieces)):
            assert_closure_matches(system, levels, order)
