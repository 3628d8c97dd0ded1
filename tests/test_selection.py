"""The child-selection kernel and the whole-level draws against naive scans.

Two kinds of labeled hierarchies feed these properties: reference nets over
small integer point sets (a side-8 square gives tie-heavy grids), and
hand-built two-level lines whose fine level need not hold the coarse
centers, so near children tie, sit too far away or are missing. Side 200
at ratio 1/144 and side 400 at ratio 1/16 are where conflicts, and so
primary labels above 0, show up most often.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from cubeforge.errors import NoNearChild
from cubeforge.labeling import (build_labels, index_to_pair, select_points,
                               specific_pick)
from cubeforge.nets import NetHierarchy, build_reference_hierarchy
from cubeforge.random_systems import (OmegaSampler,
                                      estimate_selection_probability)
from cubeforge.space import QuasiMetricSpace

DELTA = 1.0 / 144.0
OFFSETS = [-60.0, -0.5, 0.5, 60.0]


def line_space(pos):
    pos = np.asarray(pos, dtype=float)
    return QuasiMetricSpace.from_table(np.abs(pos[:, None] - pos[None, :]),
                                       declared_tri_const=1.0)


@st.composite
def cloud_labels(draw, deltas=(DELTA, 1.0 / 16.0), mode="exploratory",
                 sides=(8, 200, 400)):
    side = draw(st.sampled_from(sides))
    pts = draw(st.lists(st.tuples(st.integers(0, side), st.integers(0, side)),
                        min_size=2, max_size=16, unique=True))
    space = QuasiMetricSpace.from_coords(np.asarray(pts, dtype=float))
    pin = 0 if draw(st.booleans()) else None
    return build_labels(build_reference_hierarchy(
        space, draw(st.sampled_from(deltas)), mode=mode, distinguished=pin))


@st.composite
def loose_line_labels(draw):
    """Levels -1 and 0 on a line: coarse centers 150 apart, each with
    children at offsets from OFFSETS (near: closer than 1; children of
    adjacent centers conflict: closer than 36) and maybe itself."""
    n_coarse = draw(st.integers(1, 4))
    pos, fine = [150.0 * p for p in range(n_coarse)], []
    for p in range(n_coarse):
        offs = draw(st.lists(st.sampled_from(OFFSETS), max_size=3, unique=True))
        if not offs or draw(st.booleans()):
            fine.append(p)
        for off in offs:
            fine.append(len(pos))
            pos.append(150.0 * p + off)
    hier = NetHierarchy(line_space(pos), DELTA, -1, 0, "exploratory",
                        levels=[np.arange(n_coarse), np.array(sorted(fine))])
    return build_labels(hier)


def level_args(lab, k):
    """The naive scans' view of parent level k: distances, both point
    lists, the parent map, the primary labels and the near radius."""
    h, j = lab.hierarchy, k - lab.k_min
    return (lab.space.table.tolist(), h.level(k).tolist(),
            h.level(k + 1).tolist(), lab.order.maps[j].tolist(),
            lab.primary[j].tolist(), h.delta ** (k + 1))


def near_pool(lab, k, alpha):
    """Children of level-k center alpha within ratio**(k+1) of it."""
    kids, start = lab.near_pool[k - lab.k_min]
    return kids[start[alpha]:start[alpha + 1]].tolist()


def assert_selects(lab, rule, expect, chooser=None):
    """select_points equals the scan, or raises NoNearChild at the first
    center the scan leaves without a child."""
    missing = [(k, row.index(None))
               for k, row in zip(lab.parent_ks(), expect) if None in row]
    if missing:
        with pytest.raises(NoNearChild) as err:
            select_points(lab, rule, chooser)
        assert (err.value.level, err.value.parent_index) == missing[0]
    else:
        got = select_points(lab, rule, chooser)
        assert [c.tolist() for c in got.chosen] == expect


def check_against_scans(lab):
    pin = lab.hierarchy.distinguished
    for k in lab.parent_ks():
        d, parents, children, pmap, labels, thr = level_args(lab, k)
        kids = bruteforce.children_scan(pmap, len(parents))
        near = [[c for c in cs if d[p][children[c]] < thr]
                for p, cs in zip(parents, kids)]
        designated = [bruteforce.near_child_scan(d, p, children, cs, thr)
                      for p, cs in zip(parents, kids)]
        duplex = {c: [labels[a], cs.index(c) + 1]
                  for a, cs in enumerate(kids) for c in cs}
        assert [lab.children_of(k, a).tolist()
                for a in range(len(parents))] == kids
        assert [near_pool(lab, k, a) for a in range(len(parents))] == near
        assert lab.near[k - lab.k_min].tolist() == \
            [-1 if c is None else c for c in designated]
        assert lab.duplex[k - lab.k_min].tolist() == \
            [duplex[c] for c in range(len(children))]

    def scan(l, m, **kw):
        return [bruteforce.select_scan(*level_args(lab, k), l, m, **kw)
                for k in lab.parent_ks()]

    # labels one past the largest, and m one past the largest sibling
    # count, exercise the fallback to the near child
    for l in range(lab.max_label + 2):
        for m in range(1, lab.max_children + 2):
            assert_selects(lab, {"kind": "specific", "label": [l, m]},
                           scan(l, m))
            if pin is not None:
                assert_selects(lab, {"kind": "specific_distinguished",
                                     "label": [l, m], "distinguished": pin},
                               scan(l, m, pin=pin))
    # general rule without a chooser: the near child everywhere
    assert_selects(lab, {"kind": "general",
                         "master": {k: 0 for k in lab.parent_ks()}},
                   scan(-1, 1))
    for label in range(lab.max_label + 1):
        check_chooser(lab, label, scan(label, 1), scan(-1, 1))


def check_chooser(lab, label, first, near):
    """The chooser runs for the centers labeled `label`, in index order, up
    to the first other center without a near child (None in `near`); here
    it picks the first child, so the outcome is the scan `first`."""
    calls = []
    assert_selects(lab, {"kind": "general",
                         "master": {k: label for k in lab.parent_ks()}},
                   first, chooser=lambda k, a: calls.append((k, a)) or
                   first[k - lab.k_min][a])
    expect_calls = []
    for j, k in enumerate(lab.parent_ks()):
        labels = lab.primary[j].tolist()
        for a, c in enumerate(near[j]):
            if labels[a] == label:
                expect_calls.append((k, a))
            elif c is None:
                break
        else:
            continue
        break
    assert calls == expect_calls


@settings(max_examples=40, deadline=None)
@given(lab=cloud_labels())
def test_selection_matches_scan_on_clouds(lab):
    check_against_scans(lab)


@settings(max_examples=40, deadline=None)
@given(lab=loose_line_labels())
def test_selection_matches_scan_on_loose_lines(lab):
    check_against_scans(lab)


@settings(max_examples=40, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,)), loose_line_labels()),
       data=st.data())
def test_shifted_picks_match_scan(lab, data):
    sampler = OmegaSampler(lab, "adjacent_refined")
    K, M = sampler.n_systems, lab.max_children
    for k in lab.parent_ks():
        args = level_args(lab, k)
        sizes = [len(cs) for cs in
                 bruteforce.children_scan(args[3], len(args[1]))]
        t = data.draw(st.integers(1, K))
        shift = data.draw(st.integers(1, K))
        ordinals = [data.draw(st.integers(1, s)) for s in sizes]
        pi = (t + shift - 1) % K + 1
        l, m = (pi - 1) // M, (pi - 1) % M + 1
        for entry, ords in (({"shift": shift}, None),
                            ({"shift": shift,
                              "ordinals": np.array(ordinals)}, ordinals)):
            expect = bruteforce.select_scan(*args, l, m, ordinals=ords)
            assert specific_pick(lab, k, index_to_pair(t, M),
                                 entry).tolist() == \
                [-1 if c is None else c for c in expect]


def scalar_draw(lab, variant, seed, sample, k):
    """One level's draw made the slow way: one bounded-integer call per
    center, in index order; ("missing", alpha) where a center that must
    fall back has no near child."""
    j = k - lab.k_min
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(sample, j)))
    d, parents, children, pmap, labels, thr = level_args(lab, k)
    kids = bruteforce.children_scan(pmap, len(parents))
    if variant == "adjacent_refined":
        K = (lab.max_label + 1) * lab.max_children
        shift = int(rng.integers(1, K + 1))
        return {"shift": shift,
                "ordinals": [int(rng.integers(1, len(cs) + 1)) for cs in kids]}
    master = int(rng.integers(0, lab.max_label + 1))
    choice = []
    for a, cs in enumerate(kids):
        pool = cs if labels[a] == master else \
            [c for c in cs if d[parents[a]][children[c]] < thr]
        if not pool:
            return ("missing", a)
        choice.append(pool[rng.integers(len(pool))])
    return {"master": master, "choice": choice}


@settings(max_examples=40, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,)), loose_line_labels()),
       seed=st.integers(0, 2 ** 32), sample=st.integers(0, 50))
def test_draw_level_matches_scalar_draws(lab, seed, sample):
    # fails loudly on a numpy whose array draws consume the stream
    # differently from one scalar draw per center
    for variant in ("single", "adjacent_refined"):
        sampler = OmegaSampler(lab, variant, seed=seed)
        for k in lab.parent_ks():
            expect = scalar_draw(lab, variant, seed, sample, k)
            if isinstance(expect, tuple):
                with pytest.raises(NoNearChild) as err:
                    sampler.draw_level(sample, k)
                assert (err.value.level, err.value.parent_index) == (k, expect[1])
                continue
            got = sampler.draw_level(sample, k)
            assert {key: np.asarray(v).tolist() for key, v in got.items()} \
                == expect


def test_selection_estimate_raises_only_for_its_own_center():
    # center 0 (at 0) has two near children, center 1 (at 150) one far
    # child; K = 2, and shift 1 asks system 1 for pair label (0, 2), which
    # center 1 lacks, so it falls back to a near child it does not have
    hier = NetHierarchy(line_space([0.0, 150.0, -0.5, 0.5, 180.0]), DELTA,
                        -1, 0, "exploratory",
                        levels=[np.array([0, 1]), np.array([2, 3, 4])])
    lab = build_labels(hier)
    assert lab.near[0][1] == -1  # k_min is -1
    adjacent = OmegaSampler(lab, "adjacent", seed=5)
    with pytest.raises(NoNearChild) as err:
        estimate_selection_probability(adjacent, -1, 1, 2, 1000)
    assert (err.value.level, err.value.parent_index) == (-1, 1)
    est = estimate_selection_probability(adjacent, -1, 0, 0, 1000)
    assert 0.4 < est.frequency < 0.6
    # the refined ordinals wrap inside center 1's single child
    refined = OmegaSampler(lab, "adjacent_refined", seed=5)
    assert estimate_selection_probability(refined, -1, 1, 2, 1000).frequency == 1.0


@pytest.mark.parametrize("childless", [0, 1])
def test_childless_center_raises_no_near_child(childless):
    # two coarse centers 150 apart; the fine level keeps only points near
    # the other one, so `childless` has no children at all
    other = 1 - childless
    pos = [0.0, 150.0, 150.0 * other + 0.5]
    hier = NetHierarchy(line_space(pos), DELTA, -1, 0, "exploratory",
                        levels=[np.array([0, 1]), np.array([other, 2])])
    lab = build_labels(hier)
    assert lab.children_of(-1, childless).size == 0
    calls = []

    def chooser(k, alpha):
        calls.append(alpha)
        return int(lab.children_of(k, alpha)[0])

    raisers = [lambda v=v: OmegaSampler(lab, v, seed=3).draw_level(0, -1)
               for v in ("single", "adjacent_refined")]
    adjacent = OmegaSampler(lab, "adjacent", seed=3)
    raisers.append(lambda: adjacent.realize_family(adjacent.draw(0)))
    raisers.append(lambda: select_points(
        lab, {"kind": "general", "master": {-1: 0}}, chooser=chooser))
    for raiser in raisers:
        with pytest.raises(NoNearChild) as err:
            raiser()
        assert (err.value.level, err.value.parent_index) == (-1, childless)
    # the chooser picks for the centers before the childless one only
    assert calls == list(range(childless))


def scalar_pick_children(lab, k, l, m, ordinals=None):
    """The child-selection kernel for one pair label (l, m), the way it was
    written before it took a block of labels: the oracle of the block
    kernel."""
    j = k - lab.k_min
    kids, start = lab.children[j]
    sizes = np.diff(start)
    if ordinals is not None:
        m = (m + np.asarray(ordinals) - 1) % np.maximum(sizes, 1) + 1
    hit = (lab.primary[j] == l) & (m >= 1) & (m <= sizes)
    pick = lab.near[j].copy()
    pick[hit] = kids[(start[:-1] + m - 1)[hit]]
    return pick


def scalar_specific_pick(lab, k, label, entry=None, pinned=None):
    """specific_pick for one pair label, over scalar_pick_children."""
    l, m = label
    if entry is not None:
        M = lab.max_children
        t = (l * M + m + int(entry["shift"]) - 1) % lab.n_systems
        l, m = t // M, t % M + 1
    pick = scalar_pick_children(lab, k, l, m, entry and entry.get("ordinals"))
    if pinned is not None and int(lab.hierarchy.level(k)[0]) == pinned:
        pick[0] = 0
    return pick


@settings(max_examples=60, deadline=None)
@given(lab=st.one_of(cloud_labels(), loose_line_labels()), data=st.data())
def test_block_picks_match_the_per_label_loop(lab, data):
    # the block kernel, row by row, equals one call per label: plain, with
    # one ordinal shift for every label and with one row of them per label,
    # on labels in range and past it (l above the largest label, m = 0 or
    # above a center's sibling count); then specific_pick over a block of
    # systems, plain, pinned, level-shifted and ordinal-shifted
    K, M = lab.n_systems, lab.max_children
    for k in lab.parent_ks():
        n_k = len(lab.hierarchy.level(k))
        size = data.draw(st.integers(1, 6))
        ls = data.draw(st.lists(st.integers(0, lab.max_label + 1),
                                min_size=size, max_size=size))
        ms = data.draw(st.lists(st.integers(0, M + 1), min_size=size,
                                max_size=size))
        rows = np.array(data.draw(st.lists(
            st.lists(st.integers(-1, M + 1), min_size=n_k, max_size=n_k),
            min_size=size, max_size=size)), dtype=int)
        for ords in (None, rows[0], rows):
            per_label = [None] * size if ords is None \
                else np.broadcast_to(ords, rows.shape)
            got = lab.pick_children(k, np.array(ls), np.array(ms), ords)
            assert got.shape == (size, n_k)
            assert got.tolist() == [
                scalar_pick_children(lab, k, l, m, o).tolist()
                for l, m, o in zip(ls, ms, per_label)]
        assert lab.pick_children(k, ls[0], ms[0]).tolist() == \
            scalar_pick_children(lab, k, ls[0], ms[0]).tolist()

        ts = data.draw(st.lists(st.integers(1, K), min_size=1, max_size=6))
        sizes = np.diff(lab.children[k - lab.k_min][1])
        shift = data.draw(st.integers(1, K))
        ordinals = np.array([data.draw(st.integers(1, max(s, 1)))
                             for s in sizes.tolist()], dtype=int)
        for entry in (None, {"shift": shift},
                      {"shift": shift, "ordinals": ordinals}):
            for pinned in (None, int(lab.hierarchy.level(k)[0])):
                got = specific_pick(lab, k, index_to_pair(np.array(ts), M),
                                    entry, pinned)
                assert got.tolist() == [scalar_specific_pick(
                    lab, k, index_to_pair(t, M), entry, pinned).tolist()
                    for t in ts]
