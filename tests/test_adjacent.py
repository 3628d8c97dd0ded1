import json

import numpy as np
import pytest

import bruteforce
from cubeforge.adjacent import (
    build_adjacent_family,
    find_containing_cube,
    index_to_pair,
    pair_to_index,
    verify_covering,
)
from cubeforge.cubes import verify_cube_axioms
from cubeforge.errors import ConfigError
from cubeforge.labeling import build_labels
from cubeforge.nets import build_reference_hierarchy
from cubeforge.space import QuasiMetricSpace, generate_space

DELTA = 1 / 144


def geoline_family(distinguished=None):
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": DELTA})
    hier = build_reference_hierarchy(space, DELTA, mode="strict",
                                     distinguished=distinguished)
    labeled = build_labels(hier)
    return build_adjacent_family(labeled, distinguished=distinguished)


def cloud_family(n=48, seed=11):
    space = generate_space({"kind": "euclidean_cloud", "n": n, "dim": 2,
                            "seed": seed})
    hier = build_reference_hierarchy(space, DELTA, mode="strict")
    return build_adjacent_family(build_labels(hier))


def test_pair_index_bijection_frozen():
    # lexicographic layout for L=1, M=2
    pairs = [(0, 1), (0, 2), (1, 1), (1, 2)]
    assert [pair_to_index(l, m, 2) for l, m in pairs] == [1, 2, 3, 4]
    for t in range(1, 5):
        l, m = index_to_pair(t, 2)
        assert pair_to_index(l, m, 2) == t


def test_geoline_family_shape():
    fam = geoline_family()
    assert fam.n_systems == 2
    assert fam.covering_const == pytest.approx(8.0 * 144 ** 2)
    assert fam.to_json()["phi"] == [[0, 1, 1], [0, 2, 2]]


def test_each_system_passes_cube_axioms():
    fam = geoline_family()
    for t in range(1, fam.n_systems + 1):
        rep = verify_cube_axioms(fam.system(t))
        assert rep.passed, (t, rep.summary())


def test_find_containing_cube_frozen():
    fam = geoline_family()
    q = find_containing_cube(fam, 0, 1.0)
    assert (q.t, q.k, q.index, q.flag) == (1, -1, 0, "ok")
    assert fam.cube_members(q).tolist() == [0, 1]
    # the second point's pair label routes to system 2, whose scale-144
    # cube is centered on that very point
    q2 = find_containing_cube(fam, 1, 1.0)
    assert (q2.t, q2.k, q2.index, q2.flag) == (2, -1, 0, "ok")
    assert fam.system(2).cube(-1, 0).center == 1
    assert fam.cube_members(q2).tolist() == [0, 1]


def test_find_clamps_above_window():
    fam = geoline_family()
    q = find_containing_cube(fam, 2, 30000.0)
    assert q.flag == "clamped_coarse" and q.k == fam.k_min
    assert fam.cube_members(q).size == fam.space.n


def test_find_underflow_returns_singleton():
    fam = geoline_family()
    q = find_containing_cube(fam, 2, 1e-9)
    assert q.flag == "underflow" and q.k == fam.k_max
    assert fam.cube_members(q).tolist() == [2]


def test_find_rejects_bad_radius():
    fam = geoline_family()
    with pytest.raises(ConfigError):
        find_containing_cube(fam, 0, 0.0)


def test_covering_passes_on_geoline():
    fam = geoline_family()
    rep = verify_covering(fam)
    assert rep.passed, rep.summary()
    chk = rep.check("diameter_bound")
    assert chk.details["worst_ratio"] <= fam.covering_const


def test_covering_passes_on_cloud():
    fam = cloud_family()
    assert fam.n_systems == (fam.labeled.max_label + 1) * fam.labeled.max_children
    rep = verify_covering(fam)
    assert rep.passed, rep.summary()


def test_covering_containment_matches_scan_on_corrupted_family():
    # every cube below the top loses its last member, so some balls stick
    # out of the cube their query returns
    fam = geoline_family()
    for sys_t in fam.systems:
        for k in sys_t.level_ks()[1:]:
            for cube in sys_t.cubes_at(k):
                cube.members = cube.members[:-1]
    space, d = fam.space, fam.space.table.tolist()
    top = space.profile.diam * 1.25 + 1.0
    queries, expect = 0, []
    for x in range(space.n):
        for r in sorted({d[x][y] for y in range(space.n)} - {0.0}) + [top]:
            queries += 1
            q = find_containing_cube(fam, x, r)
            if not set(bruteforce.ball_scan(d, x, r)) <= \
                    set(fam.cube_members(q).tolist()):
                expect.append((x, r, q.to_json()))
    chk = verify_covering(fam).check("ball_containment")
    assert expect and chk.checked == queries
    assert chk.witnesses == expect


def test_query_center_is_local():
    # in-window queries return a cube centered within ratio**(k+1) of x
    fam = cloud_family(n=32, seed=3)
    rng = np.random.default_rng(0)
    for x in rng.choice(fam.space.n, 10, replace=False):
        r = float(fam.delta ** 1 * 0.5)
        q = find_containing_cube(fam, int(x), r)
        if q.flag != "ok":
            continue
        center = fam.system(q.t).cube(q.k, q.index).center
        assert fam.space.dist(int(x), center) < fam.delta ** (q.k + 1)


def test_distinguished_family_coarser_answers():
    fam = geoline_family(distinguished=0)
    assert fam.covering_const == pytest.approx(8.0 * 144 ** 3)
    q = find_containing_cube(fam, 0, 1.0)
    assert (q.t, q.k, q.index, q.flag) == (1, -2, 0, "ok")
    rep = verify_covering(fam)
    assert rep.passed, rep.summary()
    for t in range(1, fam.n_systems + 1):
        for k in fam.system(t).level_ks():
            assert fam.system(t).cube(k, 0).center == 0


def test_distinguished_requires_pinned_hierarchy():
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": DELTA})
    hier = build_reference_hierarchy(space, DELTA, mode="strict")
    with pytest.raises(ConfigError):
        build_adjacent_family(build_labels(hier), distinguished=0)


def test_single_point_space_family():
    space = QuasiMetricSpace.from_table(np.zeros((1, 1)),
                                        declared_tri_const=1.0)
    hier = build_reference_hierarchy(space, DELTA, mode="strict")
    fam = build_adjacent_family(build_labels(hier))
    assert fam.n_systems == 1
    q = find_containing_cube(fam, 0, 0.5)
    assert fam.cube_members(q).tolist() == [0]
    assert verify_covering(fam).passed


def test_family_build_is_deterministic():
    a = json.dumps(geoline_family().to_json())
    b = json.dumps(geoline_family().to_json())
    assert a == b


def test_rules_override_matches_default():
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": DELTA})
    hier = build_reference_hierarchy(space, DELTA, mode="strict")
    labeled = build_labels(hier)
    default = build_adjacent_family(labeled)
    overridden = build_adjacent_family(
        labeled, rules={1: {"kind": "specific", "label": [0, 1]}})
    assert json.dumps(default.to_json()) == json.dumps(overridden.to_json())
