"""The edge-distance kernel: a point's distance to its cube's complement.

Covering containment, the boundary sweep and both chain checks read that
distance off `space._edge_gaps`; these tests pin the kernel against the
naive boundary scan and show that each site reaches it.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from cubeforge import adjacent, labeling, random_systems
from cubeforge.adjacent import verify_covering
from cubeforge.cubes import CubeSystem
from cubeforge.errors import PreconditionFail
from cubeforge.labeling import SelectionOutcome
from cubeforge.random_systems import (OmegaSampler, check_chain_separation,
                                      estimate_boundary_sweep, realize_system,
                                      scan_chain_separation)
from cubeforge.space import QuasiMetricSpace, _edge_gaps
from test_adjacent import geoline_family
from test_analysis import int_clouds
from test_random import geoline_labels, grid_system, sized, straddle_plane


@st.composite
def small_spaces(draw):
    """Integer clouds, or integer lines (one point: no complement at all)."""
    if draw(st.booleans()):
        return draw(int_clouds())
    pos = draw(st.lists(st.integers(0, 40), min_size=1, max_size=10,
                        unique=True))
    return QuasiMetricSpace.from_line(np.asarray(pos, dtype=float))


@settings(max_examples=200, deadline=None)
@given(space=small_spaces(), data=st.data())
def test_kernel_matches_the_boundary_scan(space, data):
    n, d = space.n, space.table.tolist()
    # up to three cubes; with one cube the complement is empty
    n_cubes = data.draw(st.integers(1, 3))
    cube_of = np.array(data.draw(st.lists(st.integers(0, n_cubes - 1),
                                          min_size=n, max_size=n)))
    xs = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    # a point's own cube is mostly the one holding it, sometimes another
    own = np.array([data.draw(st.sampled_from([int(cube_of[x]), 0, 1, 2]))
                    for x in xs])
    rows = space.dist_rows(xs)
    gaps = _edge_gaps(rows, cube_of, own)
    # eps runs over every distance, so over every gap, and infinity
    eps = sorted({0.0, math.inf, *(v for row in d for v in row)})
    near = _edge_gaps(rows, cube_of, own, eps)
    assert near.shape == (len(xs), len(eps))
    # the member-mask form the covering check passes gives the same gaps
    masks = cube_of[None, :] == own[:, None]
    assert _edge_gaps(rows, masks, True).tolist() == gaps.tolist()
    for i, x in enumerate(xs):
        members = np.flatnonzero(cube_of == own[i]).tolist()
        assert _edge_gaps(rows[i], cube_of, own[i], eps).tolist() == \
            near[i].tolist()
        if x not in members:   # x itself lies outside its cube
            assert gaps[i] == 0.0 and near[i].all()
            continue
        want = [x in bruteforce.boundary_scan(d, members, e) for e in eps]
        assert near[i].tolist() == want
        # the gap is the least eps that puts x within, inf with no edge
        assert gaps[i] == min((e for e, w in zip(eps, want) if w),
                              default=math.inf)


def straddle_handpicked():
    """The straddle plane's handpicked system: 8 admissible chains."""
    lab = straddle_plane()
    chosen = [np.array([0]), np.array([3, 4, 2]), np.arange(7)]
    return realize_system(lab, SelectionOutcome(
        labeled=lab, rule={"kind": "handpicked"}, chosen=chosen))


# site -> (call, kernel calls): one per sweep batch (the geoline's 1000
# samples fit one), per chain check, per scanned point and per covering
# block of centers (the geoline's 4 centers fit one)
SITES = {
    "verify_covering": (lambda: verify_covering(geoline_family()), 1),
    "estimate_boundary_sweep": (lambda: estimate_boundary_sweep(
        OmegaSampler(geoline_labels(), seed=1), [0, 2], -2, [0.1, 1.0],
        1000), 1),
    "check_chain_separation": (lambda: check_chain_separation(
        grid_system(), 72, -1, 0.01, 0), 1),
    "scan_chain_separation": (lambda: scan_chain_separation(
        straddle_handpicked()), 1),
}


@pytest.mark.parametrize("site", SITES)
def test_each_site_reaches_the_kernel(monkeypatch, site):
    call, expect = SITES[site]
    real, calls = _edge_gaps, []

    def counting(*args, **kwargs):
        calls.append(site)
        return real(*args, **kwargs)

    want = call()
    for module in (adjacent, random_systems):
        monkeypatch.setattr(module, "_edge_gaps", counting)
    got = call()
    assert len(calls) == expect
    assert repr(got) == repr(want)


@pytest.mark.parametrize("chunk,batch,draws,batches", [
    (1, 1, 1000, 1000), (7, 3, 143, 428), (400, 400, 3, 3),
    (None, 3, 1, 334), (None, None, 1, 1)])
def test_sweep_links_and_reads_each_batch_once(monkeypatch, chunk, batch,
                                               draws, batches):
    # one draw per chunk of samples; one partial-order call and one
    # edge-distance call per batch, batches never spanning two chunks (7
    # samples link as 3 + 3 + 1); None keeps the module's size, one chunk
    # and one batch on the geoline
    lab = geoline_labels()
    monkeypatch.setattr(random_systems, "_sweep_sizes", sized(chunk, batch))
    calls = []
    for module, name in ((labeling, "build_partial_order"),
                         (random_systems, "_edge_gaps"),
                         (OmegaSampler, "_draw_choices")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name,
                            **kw: (calls.append(name), real(*a, **kw))[1])
    estimate_boundary_sweep(OmegaSampler(lab, seed=1), [0, 2], -2,
                            [0.1, 1.0], 1000)
    assert calls.count("_draw_choices") == draws
    assert calls.count("build_partial_order") == batches
    assert calls.count("_edge_gaps") == batches


def test_scan_never_reenters_the_public_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the scan called check_chain_separation")

    monkeypatch.setattr(random_systems, "check_chain_separation", refuse)
    chk = scan_chain_separation(straddle_handpicked()).check(
        "admissible_chains")
    assert chk.details == {"per_depth": {0: 6, 1: 2}, "combinations": 8}
    assert chk.passed and chk.checked == 2


def test_chain_checks_refuse_a_point_in_no_cube():
    # x (id 7) leaves its level-1 cube; from_json then gives it cube -1
    # there, and both chain checks read each center through CubeSystem.cube,
    # which refuses that index, where a plain array read would wrap round
    # to the last center
    system = straddle_handpicked()
    doc = system.to_json()
    doc["levels"][2]["cubes"][5]["members"] = [5]
    loaded = CubeSystem.from_json(doc, system.space)
    tau = system.constants.sep_const * system.delta / 12.0
    for call in (lambda: scan_chain_separation(loaded),
                 lambda: check_chain_separation(loaded, 7, 0, tau, 1)):
        with pytest.raises(PreconditionFail,
                           match=r"cube -1 outside \[0, 7\)"):
            call()
