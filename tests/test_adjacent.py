import dataclasses
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from cubeforge.adjacent import (
    _levels_for_radii,
    _link,
    _pick_levels,
    build_adjacent_family,
    find_containing_cube,
    find_containing_cubes,
    index_to_pair,
    pair_to_index,
    verify_covering,
)
from cubeforge import labeling, space as space_module
from cubeforge.analysis import _instance_constants, verify_comparability
from cubeforge.cubes import (CubeSystem, build_cube_system, close_table,
                             tight_flags, verify_cube_axioms)
from cubeforge.errors import (ConfigError, CubeforgeError, NoNearChild,
                              NoParent, PreconditionFail, TightAmbiguity)
from cubeforge.labeling import (LabeledHierarchy, SelectionOutcome,
                                build_labels, require_near, select_points,
                                selected_order, specific_pick)
from cubeforge.nets import build_reference_hierarchy
from cubeforge.pipeline import write_json
from cubeforge.random_systems import OmegaSampler
from cubeforge.space import QuasiMetricSpace, generate_space
from test_cubes import links_of
from test_space import block_sweep
from test_selection import cloud_labels

DELTA = 1 / 144


def geoline_family(distinguished=None):
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": DELTA})
    hier = build_reference_hierarchy(space, DELTA, mode="strict",
                                     distinguished=distinguished)
    labeled = build_labels(hier)
    return build_adjacent_family(labeled, distinguished=distinguished)


def cloud_family(n=48, seed=11, box=1.0):
    space = generate_space({"kind": "euclidean_cloud", "n": n, "dim": 2,
                            "seed": seed, "box": box})
    hier = build_reference_hierarchy(space, DELTA, mode="strict")
    return build_adjacent_family(build_labels(hier))


def grouped(lists):
    """Member lists as a (flat, start) pair."""
    return (np.array([p for m in lists for p in m], dtype=int),
            np.concatenate(([0], np.cumsum([len(m) for m in lists],
                                           dtype=int))))


def repiece(fam, where, edit):
    """Point level j of system i + 1, for each (j, i) in `where`, to a new
    piece of the family's table: the old piece's assign, with the member
    lists edit(lists) of its cubes' member arrays; one new piece per old
    one, so systems that shared a piece share its edit."""
    new = {}
    for j, i in where:
        p = int(fam.piece_of[j, i])
        if p not in new:
            assign, (flat, start) = fam.pieces[p]
            new[p] = len(fam.pieces)
            lists = [flat[a:b] for a, b in zip(start.tolist(),
                                               start[1:].tolist())]
            fam.pieces.append((assign, grouped(edit(lists))))
        fam.piece_of[j, i] = new[p]
    return fam


def corrupt(fam, keep):
    """Cut every cube below the top level down to members[keep]; assign
    stays as built, so only a check reading member lists can notice."""
    return repiece(fam, [(j, i) for j, i in np.ndindex(fam.piece_of.shape)
                         if j > 0], lambda lists: [m[keep] for m in lists])


def assert_kernel_matches_scans(fam):
    """Per sweep radius: the batched query equals the one-radius query and
    its member list the cube's. Then covering's containment witnesses,
    diameter witnesses and worst ratio equal a naive scan of each member
    list (C = 0 makes every query of positive diameter a witness)."""
    d = fam.space.table.tolist()
    contain, diams, worst = [], [], 0.0
    for x, _, _, _, radii in block_sweep(fam.space):
        qs = find_containing_cubes(fam, x, radii)
        which, cubes = qs.cubes(fam)
        for j, r in enumerate(radii.tolist()):
            q = qs.query(0, j)
            assert q == find_containing_cube(fam, x, r)
            members = fam.cube_members(q).tolist()
            run = np.searchsorted(qs.start, j, side="right") - 1
            assert fam.cube_members(cubes[which[run]]).tolist() == members
            inside, diam = bruteforce.ball_in_members_scan(d, x, r, members)
            if not inside:
                contain.append((x, r, q.to_json()))
            if diam > 0:
                diams.append((x, r, diam, 0.0))
            worst = max(worst, diam / r)
    fam.covering_const = 0.0
    rep = verify_covering(fam)
    assert rep.check("ball_containment").witnesses == contain
    assert rep.check("diameter_bound").witnesses == diams
    assert rep.check("diameter_bound").details["worst_ratio"] == worst


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
    for t, rep in enumerate(verify_cube_axioms(fam.systems), start=1):
        assert rep.passed, (t, rep.to_json())


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
    assert rep.passed, rep.to_json()
    chk = rep.check("diameter_bound")
    assert chk.details["worst_ratio"] <= fam.covering_const


def test_covering_passes_on_cloud():
    fam = cloud_family()
    assert fam.n_systems == (fam.labeled.max_label + 1) * fam.labeled.max_children
    rep = verify_covering(fam)
    assert rep.passed, rep.to_json()


def test_covering_measures_each_member_list_once(monkeypatch):
    # the K systems share most cubes: each distinct member list a query
    # returns has its diameter gathered once, whichever system holds it (in
    # the box of side 20, 8 (system, level, index) keys share 1 list). A
    # diameter gathers one member list as both rows and columns; the
    # routing and the containment gaps read the centers' rows
    fam = cloud_family(box=20.0)
    queried = set()
    for x, _, _, _, radii in block_sweep(fam.space):
        qs = find_containing_cubes(fam, x, radii)
        queried.update(fam.cube_members(q).tobytes() for q in qs.cubes(fam)[1])
    real, calls = fam.space.dist_rows, []

    def counting(ids, cols=None):
        if cols is ids:
            calls.append(np.asarray(ids).tobytes())
        return real(ids, cols)

    monkeypatch.setattr(fam.space, "dist_rows", counting)
    assert verify_covering(fam).passed
    assert sorted(calls) == sorted(queried)


def test_covering_containment_matches_scan_on_corrupted_family():
    # every cube below the top loses its last member, so some balls stick
    # out of the cube their query returns
    fam = corrupt(geoline_family(), slice(None, -1))
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


@pytest.mark.parametrize("family", [geoline_family, cloud_family])
def test_covering_catches_a_ball_one_rank_outside_its_cube(family):
    # drop from the cube answering one query only the ball's farthest
    # point: the ball then ends one rank past the cube, the case an
    # off-by-one in the containment test would pass
    fam = family()
    x, order, _, ends, radii = next(s for s in block_sweep(fam.space)
                                    if s[3].max() >= 2)
    j = int(np.argmax(ends >= 2))
    q = find_containing_cube(fam, x, float(radii[j]))

    def drop(lists):
        lists[q.index] = lists[q.index][lists[q.index] != order[ends[j] - 1]]
        return lists

    repiece(fam, [(q.k - fam.k_min, q.t - 1)], drop)
    assert find_containing_cube(fam, x, float(radii[j])) == q
    chk = verify_covering(fam).check("ball_containment")
    assert not chk.passed
    assert (x, float(radii[j]), q.to_json()) in chk.witnesses


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
    assert rep.passed, rep.to_json()
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


def test_family_reads_its_one_k_off_the_labels():
    fam = geoline_family()
    assert "n_systems" not in {f.name for f in dataclasses.fields(fam)}
    assert fam.n_systems == fam.labeled.n_systems == len(fam.systems)
    with pytest.raises(AttributeError):
        fam.n_systems = 1


def test_family_build_is_deterministic():
    a = json.dumps(geoline_family().to_json())
    b = json.dumps(geoline_family().to_json())
    assert a == b


@settings(max_examples=60, deadline=None)
@given(delta=st.sampled_from([1 / 144, 1 / 16, 0.5, 0.3]),
       k_lo=st.integers(-4, 2), width=st.integers(0, 5),
       extra=st.lists(st.floats(1e-12, 1e12), max_size=8))
def test_levels_match_scalar_generation(delta, k_lo, width, extra):
    k_hi = k_lo - 1 + width
    powers = [delta ** j for j in range(k_lo - 2, k_hi + 5)]
    radii = powers + extra + [np.nextafter(p, 0.0) for p in powers] \
        + [np.nextafter(p, np.inf) for p in powers]
    want = [min(max(bruteforce.generation_scan(delta, r), k_lo - 1), k_hi + 1)
            for r in radii]
    assert _levels_for_radii(delta, radii, k_lo, k_hi).tolist() == want


@pytest.mark.parametrize("distinguished", [None, 0])
def test_kernel_matches_scans_on_the_line(distinguished):
    assert_kernel_matches_scans(geoline_family(distinguished))


def test_kernel_matches_scans_on_corrupted_families():
    assert_kernel_matches_scans(corrupt(geoline_family(), slice(None, -1)))
    assert_kernel_matches_scans(corrupt(cloud_family(n=24, seed=5),
                                        slice(1, None)))


@settings(max_examples=12, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,), mode="strict"),
                     cloud_labels(deltas=(DELTA,), mode="strict",
                                  sides=(3,))))
def test_kernel_matches_scans_on_clouds(lab):
    assert_kernel_matches_scans(build_adjacent_family(
        lab, distinguished=lab.hierarchy.distinguished))


@pytest.mark.parametrize("variant", ["adjacent", "adjacent_refined"])
def test_kernel_matches_scans_on_sampled_families(variant):
    space = generate_space({"kind": "euclidean_cloud", "n": 24, "dim": 2,
                            "seed": 7})
    for lab in (geoline_family().labeled, build_labels(
            build_reference_hierarchy(space, DELTA, mode="strict"))):
        sampler = OmegaSampler(lab, variant, seed=3)
        for i in range(2):
            fam = sampler.realize_family(sampler.draw(i))
            assert fam.level_shifts is not None
            assert_kernel_matches_scans(fam)


@pytest.mark.parametrize("x", [-1, 4])
def test_queries_refuse_points_outside(x):
    fam = geoline_family()
    assert fam.space.n == 4
    radii = next(block_sweep(fam.space))[4]
    with pytest.raises(PreconditionFail, match=rf"point {x} outside \[0, 4\)"):
        find_containing_cube(fam, x, 1.0)
    with pytest.raises(PreconditionFail, match=rf"point {x} outside \[0, 4\)"):
        find_containing_cubes(fam, x, radii)


def test_kernel_rejects_bad_radii():
    fam = geoline_family()
    radii = next(block_sweep(fam.space))[4]
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ConfigError, match="radius must be positive"):
            find_containing_cubes(fam, 0, np.append(radii[:-1], bad))


# -- the shared-level builder against systems built one by one -------------


def reference_systems(lab, distinguished=None):
    """Each system of the family built on its own: select_points, then
    selected_order and build_cube_system over all of its levels."""
    systems = []
    for t in range(1, (lab.max_label + 1) * lab.max_children + 1):
        l, m = index_to_pair(t, lab.max_children)
        rule = {"kind": "specific", "label": [l, m]}
        if distinguished is not None:
            rule = {"kind": "specific_distinguished", "label": [l, m],
                    "distinguished": distinguished}
        z = select_points(lab, rule).new_levels()
        systems.append(build_cube_system(lab.space, z, selected_order(lab, z)))
    return systems


def reference_sampled_systems(sampler, omega):
    """Each system of a sampled family built on its own from its shifted
    picks."""
    lab, M = sampler.labeled, sampler.labeled.max_children
    systems = []
    for t in range(1, sampler.n_systems + 1):
        chosen = []
        for k in lab.parent_ks():
            chosen.append(specific_pick(lab, k, index_to_pair(t, M),
                                        omega["levels"][k]))
            require_near(lab, k, chosen[-1] < 0)
        z = SelectionOutcome(lab, {}, chosen).new_levels()
        systems.append(build_cube_system(lab.space, z, selected_order(lab, z)))
    return systems


def written(doc) -> bytes:
    """The bytes write_json writes for doc."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        write_json(str(path), doc)
        return path.read_bytes()


def assert_matches_reference(fam, systems):
    """fam's document writes the bytes of one whose systems are the lone
    documents of `systems`, which share nothing."""
    K = len(systems)
    want = {"K": K, "C": fam.covering_const,
            "distinguished": fam.distinguished,
            "phi": [[*index_to_pair(t, fam.labeled.max_children), t]
                    for t in range(1, K + 1)],
            "systems": [s.to_json() for s in systems]}
    assert written(fam.to_json()) == written(want)


def assert_shares_levels(fam, systems):
    """The family's table holds each level's distinct center lists and
    distinct parent maps once, and each distinct (cube count, assign)
    content once across the family, whatever order the systems came in;
    returns the count of distinct (level, coarse, fine) triples of center
    lists, the links a build makes."""
    triples, links, contents = set(), set(), set()
    for s in systems:
        z = [lv.tobytes() for lv in s.level_points]
        triples.update((j, *z[j:j + 2]) for j in range(len(z) - 1))
        links.update((j, m.tobytes()) for j, m in enumerate(s.maps))
        contents.update((len(pts), a.tobytes())
                        for pts, a in zip(s.level_points, s.assign))
    assert [len(c) for c in fam.centers] == [
        len({s.level_points[j].tobytes() for s in systems})
        for j in range(len(fam.centers))]
    assert sum(len(maps) for maps in fam.links) == len(links)
    assert len(fam.pieces) == len(contents)
    return len(triples)


def build_counting_links(build):
    """Run build() and count the (level, coarse, fine) triples its
    build_partial_order calls link: every consecutive pair of levels of a
    call, once per row of a batched call."""
    real, linked = labeling.build_partial_order, []

    def counted(*args, **kwargs):
        levels = args[1]
        rows = len(levels[0]) if np.ndim(levels[0]) > 1 else 1
        linked.append((len(levels) - 1) * rows)
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "build_partial_order", counted)
        fam = build()
    return fam, sum(linked)


def check_shared_build(lab, distinguished=None):
    fam, calls = build_counting_links(
        lambda: build_adjacent_family(lab, distinguished=distinguished))
    systems = reference_systems(lab, distinguished)
    assert_matches_reference(fam, systems)
    assert calls == assert_shares_levels(fam, systems)


def cloud_labeled(seed, n=24, box=20.0):
    space = generate_space({"kind": "euclidean_cloud", "n": n, "dim": 2,
                            "box": box, "seed": seed})
    return build_labels(build_reference_hierarchy(space, DELTA, mode="strict"))


@pytest.mark.parametrize("distinguished", [None, 0])
def test_shared_build_matches_reference_on_the_line(distinguished):
    check_shared_build(geoline_family(distinguished).labeled, distinguished)


@pytest.mark.parametrize("seed", range(4))
def test_shared_build_matches_reference_on_clouds(seed):
    check_shared_build(cloud_labeled(seed, n=100))


@settings(max_examples=12, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,), mode="strict"),
                     cloud_labels(deltas=(DELTA,), mode="strict",
                                  sides=(3,))))
def test_shared_build_matches_reference_on_integer_clouds(lab):
    check_shared_build(lab, lab.hierarchy.distinguished)


@pytest.mark.parametrize("seed", range(2))
def test_every_system_holds_one_coarsest_level(seed):
    # the coarsest level is one cube in every system, whatever its center
    fam = build_adjacent_family(cloud_labeled(seed, n=100))
    first = fam.systems[0]
    assert fam.n_systems > 1
    assert len({s.level_points[0].tobytes() for s in fam.systems}) > 1
    for s in fam.systems:
        assert s.assign[0] is first.assign[0]
        assert s.members[0] is first.members[0]


@pytest.mark.parametrize("variant", ["adjacent", "adjacent_refined"])
def test_shared_build_matches_reference_on_sampled_families(variant):
    for lab in (geoline_family().labeled, cloud_labeled(7),
                cloud_labeled(2, n=40, box=1.0)):
        sampler = OmegaSampler(lab, variant, seed=5)
        for i in range(2):
            omega = sampler.draw(i)
            fam, calls = build_counting_links(
                lambda: sampler.realize_family(omega))
            systems = reference_sampled_systems(sampler, omega)
            assert_matches_reference(fam, systems)
            assert calls == assert_shares_levels(fam, systems)


def test_one_pick_call_per_parent_level(monkeypatch):
    # the builder picks for all K systems of a level in one kernel call:
    # fixed, pinned and drawn (level- and ordinal-shifted) families
    lab, pinned = cloud_labeled(0, n=100), geoline_family(0).labeled
    sampler = OmegaSampler(lab, "adjacent_refined", seed=5)
    omega = sampler.draw(0)
    real, calls = LabeledHierarchy.pick_children, []

    def counting(self, k, l, m, ordinals=None):
        calls.append((k, np.shape(l)))
        return real(self, k, l, m, ordinals)

    monkeypatch.setattr(LabeledHierarchy, "pick_children", counting)
    for build, of in ((lambda: build_adjacent_family(lab), lab),
                      (lambda: build_adjacent_family(pinned, 0), pinned),
                      (lambda: sampler.realize_family(omega), lab)):
        calls.clear()
        build()
        assert calls == [(k, (of.n_systems,)) for k in of.parent_ks()]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_level_closure_matches_each_systems_chain(data):
    # random parent maps shared at random by K systems: each system's
    # (assign, members) pair, level by level, is the one its own chain of
    # maps composes, and equal contents are one pair
    n = data.draw(st.integers(1, 10))
    sizes = sorted(data.draw(st.lists(st.integers(1, n), max_size=3))) + [n]
    finest = np.array(data.draw(st.permutations(range(n))))
    K = data.draw(st.integers(1, 6))
    maps, link_of = [], []
    for coarse, fine in zip(sizes, sizes[1:]):
        rows = st.lists(st.integers(0, coarse - 1), min_size=fine,
                        max_size=fine)
        maps.append(np.array(data.draw(st.lists(rows, min_size=1,
                                                max_size=3))))
        link_of.append(np.array(data.draw(st.lists(
            st.integers(0, len(maps[-1]) - 1), min_size=K, max_size=K))))
    z = [np.arange(size)[None] for size in sizes[:-1]] + [finest[None]]
    pieces, piece_of = close_table(n, z, maps,
                                   np.array(link_of).reshape(len(maps), K))
    shared = {}
    for t in range(K):
        a = np.argsort(finest)   # each point's position in the finest list
        chain = [a]
        for m, x in zip(maps[::-1], link_of[::-1]):
            a = m[x[t]][a]
            chain.insert(0, a)
        for j, a in enumerate(chain):
            got, (flat, start) = pieces[piece_of[j][t]]
            assert got.tolist() == a.tolist()
            assert flat.tolist() == np.argsort(a, kind="stable").tolist()
            assert start.tolist() == [0, *np.cumsum(np.bincount(
                a, minlength=sizes[j])).tolist()]
            assert shared.setdefault((sizes[j], a.tobytes()), got) is got
    assert len(pieces) == len(shared)


@pytest.mark.parametrize("cells", [1, 1 << 40])
def test_shared_build_matches_reference_in_any_batch(monkeypatch, cells):
    # every triple linked alone, or each level's triples in one batch
    labs = [cloud_labeled(0, n=100), cloud_labeled(2, n=40, box=1.0),
            geoline_family(0).labeled]
    sampler = OmegaSampler(labs[1], "adjacent_refined", seed=5)
    omega = sampler.draw(1)
    monkeypatch.setattr(space_module, "BALL_CELLS", cells)
    for lab in labs:
        check_shared_build(lab, lab.hierarchy.distinguished)
    fam, linked = build_counting_links(lambda: sampler.realize_family(omega))
    systems = reference_sampled_systems(sampler, omega)
    assert_matches_reference(fam, systems)
    assert linked == assert_shares_levels(fam, systems)


def test_family_build_peak_memory():
    # one `build` benchmark cloud (n = 520 in a box of 20, seed 88; levels
    # [1, 170, 520], K = 340): the builder that made one system at a time
    # peaked at 2 370 186 bytes under tracemalloc (numpy 2.4.6); the
    # level-at-a-time build must stay at or below that
    space = generate_space({"kind": "euclidean_cloud", "n": 520, "dim": 2,
                            "box": 20.0, "seed": 88})
    lab = build_labels(build_reference_hierarchy(space, DELTA, mode="strict"))
    assert lab.n_systems == 340
    tracemalloc.start()
    try:
        build_adjacent_family(lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_370_186


def corrupt_picks(mp, spoil):
    """Spoil the rows of pick_children's answer, for a block of labels or
    one label, whose (k, l, m) keys are in `spoil`: a center with no child
    ("none"), every center on one child ("same", so the child has several
    tight parents) or the level's first indices ("first", so some point
    finer down has no parent in range)."""
    real = LabeledHierarchy.pick_children

    def pick(self, k, l, m, ordinals=None):
        out = real(self, k, l, m, ordinals)
        rows = np.atleast_2d(out)   # a view: spoiling a row spoils out
        for row, *label in zip(rows, np.ravel(l), np.ravel(m)):
            how = spoil.get((k, *map(int, label)))
            if how == "none":
                row[-1] = -1
            elif how == "same":
                row[:] = row[0]
            elif how == "first":
                row[:] = np.arange(row.size)
        return out

    mp.setattr(LabeledHierarchy, "pick_children", pick)


def outcome(build):
    try:
        return build()
    except CubeforgeError as err:
        return err


def assert_same_outcome(got, want):
    if isinstance(want, CubeforgeError):
        assert type(got) is type(want)
        assert (vars(got), str(got)) == (vars(want), str(want))
    else:
        assert not isinstance(got, CubeforgeError), got


@pytest.mark.parametrize("how, k, error", [("none", -1, NoNearChild),
                                           ("same", 0, TightAmbiguity),
                                           ("first", 0, NoParent)])
def test_shared_build_raises_what_the_reference_raises(how, k, error):
    lab = cloud_labeled(0)
    K = (lab.max_label + 1) * lab.max_children
    for t in (2, K // 2 + 1, K):
        with pytest.MonkeyPatch.context() as mp:
            corrupt_picks(mp, {(k, *index_to_pair(t, lab.max_children)): how})
            want = outcome(lambda: reference_systems(lab))
            got = outcome(lambda: build_adjacent_family(lab))
        assert isinstance(want, error)
        assert_same_outcome(got, want)


def test_shared_build_raises_the_first_systems_error():
    # system 3 fails to link and system 5 fails to select: selecting every
    # system before linking any would raise the later system's error
    lab = cloud_labeled(0)

    def key(k, t):
        return (k, *index_to_pair(t, lab.max_children))

    for spoil, error in (({key(0, 3): "same", key(-1, 5): "none"},
                          TightAmbiguity),
                         ({key(0, 3): "first", key(0, 5): "same"}, NoParent)):
        with pytest.MonkeyPatch.context() as mp:
            corrupt_picks(mp, spoil)
            want = outcome(lambda: reference_systems(lab))
            got = outcome(lambda: build_adjacent_family(lab))
        assert isinstance(want, error)
        assert_same_outcome(got, want)


def test_a_failing_batch_links_each_pair_alone():
    # a batch with one refused pair: every other pair keeps its own link,
    # and the refused one its own error
    lab = cloud_labeled(0)
    z, _, _ = _pick_levels(lab, None, None)
    good = (z[1][0], z[2][0])
    bad = (np.full(z[1][0].size, z[1][0][0]), z[2][0])
    alone = selected_order(lab, list(good), k_top=lab.k_min + 1)
    with pytest.raises(TightAmbiguity) as info:
        selected_order(lab, list(bad), k_top=lab.k_min + 1)
    got = _link(lab, 1, [good, bad, good])
    assert [type(x) for x in got] == [np.ndarray, TightAmbiguity, np.ndarray]
    assert str(got[1]) == str(info.value)
    c, k = lab.selected_constants, lab.k_min + 1
    want = bruteforce.parent_scan(
        lab.space.table.tolist(), good[0].tolist(), good[1].tolist(),
        c.sep_const * c.delta ** k / (2.0 * c.tri_const),
        c.cover_const * c.delta ** k)
    for m in (got[0], got[2]):
        assert m.tolist() == alone.maps[0].tolist()
        flags = tight_flags(lab.space, c, k, *good, m)
        assert list(zip(m.tolist(), flags.tolist())) == want


@pytest.mark.parametrize("per_block", [2, 3])
def test_shared_build_raises_the_same_in_small_batches(monkeypatch,
                                                      per_block):
    # the finest links go per_block pairs a call; a failing call is linked
    # again a pair at a time, and each error must land on the systems that
    # hold its pair, whichever call it sat in
    lab = cloud_labeled(0, n=100)
    K, M = lab.n_systems, lab.max_children
    monkeypatch.setattr(space_module, "BALL_CELLS", per_block * lab.space.n
                        * len(lab.hierarchy.level(lab.k_max - 1)))
    for t1, t2 in ((2, 3), (3, 2), (3, 5), (2, K), (K - 1, K)):
        for how1, how2 in (("same", "first"), ("first", "same")):
            with pytest.MonkeyPatch.context() as mp:
                corrupt_picks(mp, {(0, *index_to_pair(t1, M)): how1,
                                   (0, *index_to_pair(t2, M)): how2})
                want = outcome(lambda: reference_systems(lab))
                got = outcome(lambda: build_adjacent_family(lab))
            assert isinstance(want, (TightAmbiguity, NoParent))
            assert_same_outcome(got, want)


@settings(max_examples=16, deadline=None)
@given(lab=cloud_labels(deltas=(DELTA,), mode="strict"), data=st.data())
def test_shared_build_error_parity_on_integer_clouds(lab, data):
    pin = lab.hierarchy.distinguished
    K = (lab.max_label + 1) * lab.max_children
    t = data.draw(st.integers(1, K))
    k = data.draw(st.sampled_from(list(lab.parent_ks()) or [lab.k_min]))
    how = data.draw(st.sampled_from(["none", "same", "first"]))
    sampler = OmegaSampler(lab, "adjacent", seed=data.draw(st.integers(0, 9)))
    omega = sampler.draw(0)
    with pytest.MonkeyPatch.context() as mp:
        corrupt_picks(mp, {(k, *index_to_pair(t, lab.max_children)): how})
        want = outcome(lambda: reference_systems(lab, pin))
        got = outcome(lambda: build_adjacent_family(lab, distinguished=pin))
        assert_same_outcome(got, want)
        if not isinstance(want, CubeforgeError):
            assert_matches_reference(got, want)
        want = outcome(lambda: reference_sampled_systems(sampler, omega))
        got = outcome(lambda: sampler.realize_family(omega))
        assert_same_outcome(got, want)
        if not isinstance(want, CubeforgeError):
            assert_matches_reference(got, want)


@settings(max_examples=12, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,), mode="strict"),
                     st.sampled_from([None, 0]).map(
                         lambda pin: geoline_family(pin).labeled)))
def test_fixed_family_is_the_draw_with_every_shift_k(lab):
    sampler = OmegaSampler(lab, "adjacent")
    omega = {"variant": "adjacent", "sample": 0,
             "levels": {k: {"shift": sampler.n_systems}
                        for k in lab.parent_ks()}}
    assert json.dumps(build_adjacent_family(lab).to_json()) \
        == json.dumps(sampler.realize_family(omega).to_json())


# -- the family document ---------------------------------------------------


def refined_family(lab):
    sampler = OmegaSampler(lab, "adjacent_refined", seed=5)
    return sampler.realize_family(sampler.draw(0))


FAMILIES = {
    "line": geoline_family,
    "pinned-line": lambda: geoline_family(distinguished=0),
    "cloud40": lambda: build_adjacent_family(cloud_labeled(40, n=100)),
    "cloud72": lambda: build_adjacent_family(cloud_labeled(72, n=100)),
    "refined-line": lambda: refined_family(geoline_family().labeled),
    "refined-cloud": lambda: refined_family(cloud_labeled(7)),
}


def assert_same_system(a, b):
    assert (a.k_min, a.k_max, a.mode) == (b.k_min, b.k_max, b.mode)
    assert a.constants.to_json() == b.constants.to_json()
    pairs = [*zip(a.level_points, b.level_points), *zip(a.assign, b.assign),
             *(pair for links in zip(links_of(a), links_of(b))
               for pair in zip(*links))]
    pairs += [(x, y) for ma, mb in zip(a.members, b.members)
              for x, y in zip(ma, mb)]
    assert len(pairs) == 4 * (a.k_max - a.k_min) + 2 + 2 * len(a.members)
    for x, y in pairs:
        assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 16),
       pin=st.sampled_from([None, 0]))
def test_family_document_flags_match_the_scan_and_read_back(n, seed, pin):
    # plain and pinned families of small box-20 clouds: each written map and
    # tight flag is parent_scan's for its system's center lists, and every
    # system document reads back to itself
    space = generate_space({"kind": "euclidean_cloud", "n": n, "dim": 2,
                            "box": 20.0, "seed": seed})
    fam = build_adjacent_family(build_labels(build_reference_hierarchy(
        space, DELTA, mode="strict", distinguished=pin)), distinguished=pin)
    d, c = space.table.tolist(), fam.constants
    for doc in json.loads(json.dumps(fam.to_json()))["systems"]:
        lists = [[cube["center"] for cube in lv["cubes"]]
                 for lv in doc["levels"]]
        for k, coarse, fine, entry in zip(fam.level_ks(), lists, lists[1:],
                                          doc["parents"]):
            want = bruteforce.parent_scan(
                d, coarse, fine, c.sep_const * c.delta ** k
                / (2.0 * c.tri_const), c.cover_const * c.delta ** k)
            assert list(zip(entry["map"], entry["tight"])) == want
        assert CubeSystem.from_json(doc, space).to_json() == doc


@pytest.mark.parametrize("name", FAMILIES)
def test_family_document_shares_equal_content(name):
    fam = FAMILIES[name]()
    doc = fam.to_json()
    assert doc["systems"] == [s.to_json() for s in fam.systems]
    # one object per distinct level content and per distinct parent entry
    for part in ("levels", "parents"):
        entries = [e for s in doc["systems"] for e in s[part]]
        assert len({id(e) for e in entries}) \
            == len({json.dumps(e, sort_keys=True) for e in entries})
    for system, sdoc in zip(fam.systems, doc["systems"]):
        back = CubeSystem.from_json(json.loads(json.dumps(sdoc)), fam.space)
        assert_same_system(back, system)


@settings(max_examples=30, deadline=None)
@given(lab=cloud_labels(deltas=(DELTA,), mode="strict"),
       kind=st.sampled_from(["fixed", "adjacent", "adjacent_refined"]),
       seed=st.integers(0, 9))
def test_family_document_writes_the_lone_documents_bytes(lab, kind, seed):
    # fixed families, pinned when the hierarchy pins point 0, and drawn
    # families: the table's shared entries write the bytes of a document of
    # systems built one by one, which share nothing
    if kind == "fixed":
        pin = lab.hierarchy.distinguished
        fam, systems = (build_adjacent_family(lab, distinguished=pin),
                        reference_systems(lab, pin))
    else:
        sampler = OmegaSampler(lab, kind, seed=seed)
        omega = sampler.draw(0)
        fam, systems = (sampler.realize_family(omega),
                        reference_sampled_systems(sampler, omega))
    assert_matches_reference(fam, systems)


def by_system(fam, rep, *names):
    """The witnesses of the checks `names`, grouped by the system of the
    query of their (x, r) ball."""
    out = {}
    for name in names:
        for w in rep.check(name).witnesses:
            t = find_containing_cube(fam, w[0], w[1]).t
            out.setdefault(t, []).append((name, w))
    return out


def multiscale_family():
    """A strict family on 40 integer points spread over scales 1 to
    144**2.5: K = 15, and ball queries answer in the middle levels, which
    hold several pieces."""
    rng = np.random.default_rng(17)
    coords = rng.uniform(0, 1, (40, 2)) * 144.0 ** rng.uniform(0, 2.5, (40, 1))
    space = QuasiMetricSpace.from_coords(np.round(coords))
    return build_adjacent_family(build_labels(build_reference_hierarchy(
        space, DELTA, mode="strict")))


def test_a_corrupted_piece_shows_in_the_systems_holding_it():
    # the first ball query answered in a piece that not every system holds
    # names a cube; the point farthest from it, in a cube of 2 points or
    # more, moves into it, in assign and members. C = 0 makes every answered
    # cube of positive diameter a covering witness, and C_a = C_a' = 0 every
    # cube and ball a mass witness
    fam = multiscale_family()
    space = fam.space
    mu = np.random.default_rng(3).integers(1, 6, space.n).astype(float)
    consts = {**_instance_constants(fam, mu), "C_a": 0.0, "C_a_prime": 0.0}
    fam.covering_const = 0.0

    def witnesses():
        masses = verify_comparability(fam, mu, [], constants=consts)
        outer = {}
        for w in masses.check("cube_outer_ball_mass").witnesses:
            outer.setdefault(w[0], []).append(w)
        return ([rep.to_json() for rep in verify_cube_axioms(fam.systems)],
                outer, by_system(fam, masses, "ball_containing_cube_mass"),
                by_system(fam, verify_covering(fam), "ball_containment",
                          "diameter_bound"))

    def holding(p):
        return set(np.flatnonzero((fam.piece_of == p).any(axis=0)) + 1)

    axioms, outer, contained, covered = witnesses()
    assert all(rep["passed"] for rep in axioms)
    p, cube = next(
        (fam.piece(q), q.index) for x in range(space.n)
        for r in np.unique(space.dist_rows([x])[0])[1:].tolist()
        for q in [find_containing_cube(fam, x, r)]
        if len(holding(fam.piece(q))) < fam.n_systems)
    holders = holding(p)
    assign, (flat, start) = fam.pieces[p]
    lists = [flat[a:b].tolist() for a, b in zip(start, start[1:])]
    x = max((y for y in range(space.n) if assign[y] != cube
             and len(lists[assign[y]]) > 1),
            key=lambda y: space.dist_rows([y], lists[cube]).min())
    lists[assign[x]].remove(x)
    lists[cube].append(x)
    fam.pieces[p] = (np.where(np.arange(space.n) == x, cube, assign),
                     grouped(lists))

    axioms_2, outer_2, contained_2, covered_2 = witnesses()
    assert {t for t, (a, b) in enumerate(zip(axioms, axioms_2), 1)
            if a != b} == holders
    assert not any(axioms_2[t - 1]["passed"] for t in holders)
    assert {t for t in outer | outer_2
            if outer.get(t) != outer_2.get(t)} == holders
    # a ball's query answers in one system, so a ball shows the corruption
    # only when it is routed to a holder
    for before, after in ((contained, contained_2), (covered, covered_2)):
        changed = {t for t in before | after if before.get(t) != after.get(t)}
        assert changed and changed <= holders
