"""Every level, point, cube, center, child, system index, seed and sample
index a caller passes in goes through `errors.require_id`: an integer (a
Python or numpy one, never a bool) inside the id's range, kept as a Python
int, or PreconditionFail."""
import json
from functools import lru_cache

import numpy as np
import pytest

from cubeforge.adjacent import (build_adjacent_family, find_containing_cube,
                                find_containing_cubes)
from cubeforge.errors import NotAChild, PreconditionFail, require_id
from cubeforge.labeling import build_labels, select_points
from cubeforge.nets import build_reference_hierarchy
from cubeforge.random_systems import (OmegaSampler, check_chain_separation,
                                      estimate_boundary_probability,
                                      estimate_boundary_sweep,
                                      estimate_selection_probability)
from cubeforge.space import ball, generate_space

DELTA = 1 / 144
U64 = 2 ** 64


@lru_cache(maxsize=None)
def line():
    """The geometric line: n = 4, levels [-3, 1], K = 2."""
    space = generate_space({"kind": "geometric_line", "levels": 3,
                            "delta": DELTA})
    lab = build_labels(build_reference_hierarchy(space, DELTA,
                                                 mode="strict"))
    fam = build_adjacent_family(lab)
    assert (space.n, lab.k_min, lab.k_max, lab.n_systems) == (4, -3, 1, 2)
    return lab, fam


def _select(lab, beta):
    master = {k: 0 for k in lab.parent_ks()}
    return select_points(lab, {"kind": "general", "master": master},
                         chooser=lambda k, alpha: beta)


# name -> (call(lab, fam, id), first valid id, last valid id)
ENTRIES = {
    "NetHierarchy.level": (
        lambda lab, fam, v: lab.hierarchy.level(v), -3, 1),
    "CubeSystem.cubes_at": (
        lambda lab, fam, v: fam.system(1).cubes_at(v), -3, 1),
    "children_of level": (
        lambda lab, fam, v: lab.children_of(v, 0), -3, 0),
    "chain level": (
        lambda lab, fam, v: check_chain_separation(fam.system(1), 0, v,
                                                   1e-9, 0), -3, 1),
    "chain depth": (
        lambda lab, fam, v: check_chain_separation(fam.system(1), 0, -3,
                                                   1e-9, v), 0, 4),
    "CubeSystem.locate": (
        lambda lab, fam, v: fam.system(1).locate(1, v), 0, 3),
    "find_containing_cube": (
        lambda lab, fam, v: find_containing_cube(fam, v, 1.0), 0, 3),
    "find_containing_cubes": (
        lambda lab, fam, v: find_containing_cubes(fam, v, [1.0]), 0, 3),
    "estimate_boundary_sweep": (
        lambda lab, fam, v: estimate_boundary_sweep(
            OmegaSampler(lab), [0, v], -1, [0.1], 1000), 0, 3),
    "estimate_boundary_probability": (
        lambda lab, fam, v: estimate_boundary_probability(
            OmegaSampler(lab), v, -1, 0.1, 1000), 0, 3),
    "chain point": (
        lambda lab, fam, v: check_chain_separation(fam.system(1), v, 1,
                                                   1e-9, 0), 0, 3),
    "space.ball": (lambda lab, fam, v: ball(fam.space, v, 1.0), 0, 3),
    "CubeSystem.cube": (
        lambda lab, fam, v: fam.system(1).cube(-1, v), 0, 2),
    "selection alpha": (
        lambda lab, fam, v: estimate_selection_probability(
            OmegaSampler(lab), -2, v, {0: 0, 1: 2}.get(v, 0), 1000), 0, 1),
    "children_of index": (lambda lab, fam, v: lab.children_of(-2, v), 0, 1),
    "AdjacentFamily.system": (lambda lab, fam, v: fam.system(v), 1, 2),
    "selection t": (
        lambda lab, fam, v: estimate_selection_probability(
            OmegaSampler(lab, "adjacent"), -2, 0, 0, 1000, t=v), 1, 2),
    "OmegaSampler seed": (
        lambda lab, fam, v: OmegaSampler(lab, seed=v), 0, U64 - 1),
    "draw_level sample": (
        lambda lab, fam, v: OmegaSampler(lab).draw_level(v, -3), 0, U64 - 1),
    "draw sample": (lambda lab, fam, v: OmegaSampler(lab).draw(v), 0, U64 - 1),
}


@pytest.mark.parametrize("bad", ["below", "above", "fraction", "bool"])
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_entry_refuses_ids_outside_its_contract(name, bad):
    call, lo, hi = ENTRIES[name]
    lab, fam = line()
    value = {"below": lo - 1, "above": hi + 1, "fraction": 1.5,
             "bool": True}[bad]
    with pytest.raises(PreconditionFail):
        call(lab, fam, value)


@pytest.mark.parametrize("name", sorted(set(ENTRIES) - {
    "chain level", "chain depth", "chain point"}))
def test_every_entry_takes_numpy_ids_at_both_ends(name):
    # the chain check refuses these ids only later, for want of a boundary
    call, lo, hi = ENTRIES[name]
    lab, fam = line()
    for v in (lo, hi):
        call(lab, fam, np.int64(v) if v < 2 ** 63 else np.uint64(v))


@pytest.mark.parametrize("beta", [1.5, True, np.float64(0.0)])
def test_a_chooser_must_return_an_integer(beta):
    # 1.5 and True used to be truncated to the child index 1
    with pytest.raises(PreconditionFail, match="child .* is not an integer"):
        _select(line()[0], beta)


@pytest.mark.parametrize("beta", [-1, 4])
def test_a_chooser_integer_that_is_no_child_is_not_a_child(beta):
    with pytest.raises(NotAChild, match=rf"index {beta} on level -2"):
        _select(line()[0], beta)


def test_numpy_ids_are_recorded_as_python_ints():
    lab, fam = line()
    est = estimate_boundary_probability(OmegaSampler(lab), np.int64(1),
                                        np.int64(-1), 0.1, 1000)
    assert (type(est.x), type(est.k)) == (int, int)
    sel = estimate_selection_probability(
        OmegaSampler(lab, "adjacent"), np.int64(-2), np.int64(0),
        np.int64(0), 1000, t=np.int64(2))
    assert {type(v) for v in (sel.k, sel.alpha, sel.beta, sel.t)} == {int}
    sampler = OmegaSampler(lab, seed=np.uint64(7))
    assert type(sampler.seed) is int
    assert type(sampler.draw(np.int64(3))["sample"]) is int
    json.dumps([est.to_json(), sel.to_json(), sampler.to_json()])
    assert est.to_json() == estimate_boundary_probability(
        OmegaSampler(lab), 1, -1, 0.1, 1000).to_json()


def test_the_guard_names_the_id_and_its_range():
    assert require_id("level", np.int32(-2), -3, 1) == -2
    assert require_id("point", 3, 0, 4, ")") == 3
    with pytest.raises(PreconditionFail, match=r"^level 2 outside \[-3, 1\]$"):
        require_id("level", 2, -3, 1)
    with pytest.raises(PreconditionFail, match=r"^point 4 outside \[0, 4\)$"):
        require_id("point", np.int64(4), 0, 4, ")")
    with pytest.raises(PreconditionFail, match=r"^point 1\.5 is not an "):
        require_id("point", 1.5, 0, 4, ")")
    with pytest.raises(PreconditionFail, match=r"^cube True is not an "):
        require_id("cube", True, 0, 4, ")")
    with pytest.raises(PreconditionFail, match=r"^cube np\.True_ is not "):
        require_id("cube", np.bool_(True), 0, 4, ")")
