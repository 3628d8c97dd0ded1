import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubeforge import nets
from cubeforge.errors import ConfigError, ModeViolation
from cubeforge.nets import (NetHierarchy, build_reference_hierarchy, level_window,
                            verify_net_axioms)
from cubeforge.space import QuasiMetricSpace, generate_space

from bruteforce import greedy_net_scan, level_witness_scan
from test_analysis import int_clouds


def line4():
    return QuasiMetricSpace.from_line([0.0, 1.0, 3.0, 7.0])


def test_window_line4():
    assert level_window(line4(), 0.25) == (-2, 1)


def test_window_geometric_line_144():
    space = generate_space({"kind": "geometric_line", "levels": 3, "delta": 1 / 144})
    assert level_window(space, 1 / 144) == (-3, 1)


def test_levels_line4_frozen():
    h = build_reference_hierarchy(line4(), 0.25, mode="exploratory")
    assert [lv.tolist() for lv in h.levels] == [
        [0],            # threshold 16 > diam
        [0, 3],         # threshold 4: positions 0 and 7
        [0, 1, 2, 3],   # threshold 1: every gap is >= 1
        [0, 1, 2, 3],
    ]


def test_levels_match_greedy_oracle():
    space = line4()
    h = build_reference_hierarchy(space, 0.25, mode="exploratory")
    d = space.table.tolist()
    for k in h.level_ks():
        expect = greedy_net_scan(d, range(4), 0.25 ** k)
        assert h.level(k).tolist() == expect


@settings(max_examples=150, deadline=None)
@given(space=int_clouds(), delta=st.sampled_from([0.5, 0.25]), data=st.data())
def test_levels_match_greedy_scan_on_clouds(space, delta, data):
    # integer points put distances 1, 2, 4, ... exactly on the thresholds
    pin = data.draw(st.none() | st.integers(0, space.n - 1))
    h = build_reference_hierarchy(space, delta, mode="exploratory",
                                  distinguished=pin)
    order = [p for p in range(space.n) if p != pin]
    if pin is not None:
        order.insert(0, pin)
    d = space.table.tolist()
    for k in h.level_ks():
        assert h.level(k).tolist() == greedy_net_scan(d, order, delta ** k)


def test_strict_line_144_levels():
    space = generate_space({"kind": "geometric_line", "levels": 3, "delta": 1 / 144})
    h = build_reference_hierarchy(space, 1 / 144, mode="strict")
    assert h.level(-3).tolist() == [0]
    assert h.level(-2).tolist() == [0, 3]
    assert h.level(-1).tolist() == [0, 2, 3]
    assert h.level(0).tolist() == [0, 1, 2, 3]
    assert h.level(1).tolist() == [0, 1, 2, 3]
    assert verify_net_axioms(h).passed


def test_strict_mode_rejects_coarse_delta():
    with pytest.raises(ModeViolation):
        build_reference_hierarchy(line4(), 0.25, mode="strict")


def test_mode_rejects_bad_ratio():
    with pytest.raises(ModeViolation):
        build_reference_hierarchy(line4(), 1.5, mode="exploratory")
    with pytest.raises(ConfigError, match="mode must be one of"):
        build_reference_hierarchy(line4(), 0.25, mode="casual")


def test_distinguished_sits_first_everywhere():
    h = build_reference_hierarchy(line4(), 0.25, mode="exploratory", distinguished=2)
    assert all(int(lv[0]) == 2 for lv in h.levels)
    assert h.level(-1).tolist() == [2, 3]  # position 3, then 7 at distance 4
    assert verify_net_axioms(h).passed


def test_single_point_space_one_level():
    space = QuasiMetricSpace.from_table(np.zeros((1, 1)))
    h = build_reference_hierarchy(space, 0.25, mode="exploratory")
    assert (h.k_min, h.k_max) == (0, 0)
    assert h.levels[0].tolist() == [0]
    assert verify_net_axioms(h).passed


def test_axioms_on_cloud():
    space = generate_space({"kind": "euclidean_cloud", "n": 100, "dim": 2, "seed": 9})
    h = build_reference_hierarchy(space, 1 / 144, mode="strict")
    rep = verify_net_axioms(h)
    assert rep.passed, rep.to_json()
    # nets shrink (weakly) toward coarse levels
    sizes = [len(lv) for lv in h.levels]
    assert sizes == sorted(sizes)
    assert sizes[0] == 1 and sizes[-1] == space.n


def test_corrupted_net_is_flagged():
    space = line4()
    h = build_reference_hierarchy(space, 0.25, mode="exploratory")
    # dropping a finest-level point breaks covering
    broken = NetHierarchy(space, h.delta, h.k_min, h.k_max, h.mode,
                          [lv.copy() for lv in h.levels])
    broken.levels[-1] = np.array([0, 1, 2])
    rep = verify_net_axioms(broken)
    assert not rep.check("covering").passed
    assert rep.check("covering").witnesses
    assert not rep.check("finest_is_everything").passed
    # doubling a point breaks separation
    crowded = NetHierarchy(space, h.delta, h.k_min, h.k_max, h.mode,
                           [lv.copy() for lv in h.levels])
    crowded.levels[1] = np.array([0, 1, 3])  # positions 0 and 1 at distance 1 < 4
    rep2 = verify_net_axioms(crowded)
    assert not rep2.check("separation").passed


def test_hierarchy_json_roundtrip():
    space = line4()
    h = build_reference_hierarchy(space, 0.25, mode="exploratory", distinguished=1)
    back = NetHierarchy.from_json(h.to_json(), space)
    assert back.k_min == h.k_min and back.k_max == h.k_max
    assert all(np.array_equal(a, b) for a, b in zip(back.levels, h.levels))
    assert back.distinguished == 1


def cloud_net_doc():
    """The strict hierarchy document of a 40-point box-20 cloud (levels
    -1..1 of 1, 36 and 40 points), and its space."""
    space = generate_space({"kind": "euclidean_cloud", "n": 40, "dim": 2,
                            "seed": 3, "box": 20.0})
    return build_reference_hierarchy(space, 1 / 144).to_json(), space


@pytest.mark.parametrize("index, bad, why", [
    (-1, -1, r"outside \[0, 40\)"), (0, 0.5, "is not an integer"),
    (0, 40, r"outside \[0, 40\)")])
def test_hierarchy_json_refuses_ids_outside_the_space(index, bad, why):
    # -1 in place of point 39 loaded as 39 and 0.5 in place of 0 as 0, and
    # the net axioms passed on both; 40 raised a bare IndexError
    doc, space = cloud_net_doc()
    assert verify_net_axioms(NetHierarchy.from_json(doc, space)).passed
    doc["levels"][2][index] = bad
    with pytest.raises(ConfigError,
                       match=rf"level 1, cube {index % 40}: center id {bad} "
                             + why):
        NetHierarchy.from_json(doc, space)


@pytest.mark.parametrize("bad", [True, 0.0, 2.5, "x", 99, -1, 40])
def test_hierarchy_json_refuses_a_distinguished_outside_the_space(bad):
    # each of these loaded, and a family was built "pinned" at it
    doc, space = cloud_net_doc()
    doc["distinguished"] = bad
    with pytest.raises(ConfigError, match=r"^distinguished: expected a point "
                       rf"id in \[0, 40\), got {re.escape(repr(bad))}$"):
        NetHierarchy.from_json(doc, space)
    # a point id that is not pinned still loads, for the verifier to fail
    doc["distinguished"] = 5
    rep = verify_net_axioms(NetHierarchy.from_json(doc, space))
    assert not rep.check("distinguished_pinned").passed


@pytest.mark.parametrize("edit, want", [
    (lambda d: d["levels"].pop(1), "level 1: 2 levels listed for k = -1..1"),
    (lambda d: d.update(k_max=2), "level 2: 3 levels listed for k = -1..2"),
    (lambda d: d.update(k_min=0), "level 2: 3 levels listed for k = 0..1")])
def test_hierarchy_json_refuses_a_level_count_off_its_window(edit, want):
    # a dropped level or a k_max one too large raised a bare IndexError
    doc, space = cloud_net_doc()
    edit(doc)
    with pytest.raises(ConfigError, match=f"^{want}$"):
        NetHierarchy.from_json(doc, space)


@st.composite
def int_spaces(draw):
    """Small integer clouds or integer points on a line: both put distances
    exactly on power-of-two thresholds."""
    if draw(st.booleans()):
        return draw(int_clouds())
    pos = draw(st.lists(st.integers(0, 64), min_size=2, max_size=12,
                        unique=True))
    return QuasiMetricSpace.from_line([float(p) for p in pos])


def perturbed(space, levels, data):
    """Copies of the id arrays `levels`; maybe one of them gains a
    near-duplicate center (the point nearest to one of its centers, which may
    repeat a center) and maybe one of them loses a center."""
    levels = [lv.copy() for lv in levels]
    if levels and data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(levels) - 1))
        c = int(data.draw(st.sampled_from(levels[j].tolist())))
        row = space.dist_row(c).copy()
        row[c] = np.inf
        levels[j] = np.insert(levels[j], data.draw(
            st.integers(0, len(levels[j]))), int(np.argmin(row)))
    if levels and data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(levels) - 1))
        if len(levels[j]) > 1:
            levels[j] = np.delete(levels[j], data.draw(
                st.integers(0, len(levels[j]) - 1)))
    return levels


def scanned_witnesses(space, ks, levels, sep_thr, cov_thr):
    """Separation and covering witnesses of every level, by the oracle."""
    d = space.table.tolist()
    sep, cov = [], []
    for k, lv in zip(ks, levels):
        pair, worst = level_witness_scan(d, lv.tolist(), sep_thr(k),
                                         cov_thr(k))
        sep += [(k, *pair)] if pair else []
        cov += [(k, *worst)] if worst else []
    return sep, cov


@settings(max_examples=150, deadline=None)
@given(space=int_spaces(), delta=st.sampled_from([0.5, 0.25]),
       block=st.integers(1, 4), data=st.data())
def test_net_witnesses_match_scan(space, delta, block, data):
    # blocks of 1-4 rows make close pairs and worst points straddle blocks
    h = build_reference_hierarchy(space, delta, mode="exploratory")
    levels = perturbed(space, h.levels, data)
    bent = NetHierarchy(space, delta, h.k_min, h.k_max, h.mode, levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nets, "_ROW_BLOCK", block)
        rep = verify_net_axioms(bent)
    scale = lambda k: delta ** k
    sep, cov = scanned_witnesses(space, bent.level_ks(), levels, scale, scale)
    assert rep.check("separation").witnesses == sep
    assert rep.check("covering").witnesses == cov
    assert rep.check("separation").passed == (not sep)
    assert rep.check("covering").passed == (not cov)
    assert rep.check("separation").checked == \
        sum(len(lv) * (len(lv) - 1) for lv in levels)
    assert rep.check("covering").checked == space.n * len(levels)


def test_net_check_streams_its_rows():
    # at n = 2000 one whole-level row array is a 32 MB block
    n = 2000
    pos = np.arange(n, dtype=float)
    space = QuasiMetricSpace(n, table=np.abs(pos[:, None] - pos[None, :]))
    h = NetHierarchy(space, 0.5, 0, 1, "exploratory",
                     [np.array([0]), np.arange(n)])
    tracemalloc.start()
    try:
        rep = verify_net_axioms(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak
    assert rep.check("separation").passed
    assert rep.check("separation").checked == n * (n - 1)
    assert rep.check("covering").witnesses == [(0, n - 1, float(n - 1))]
