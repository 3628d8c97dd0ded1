import functools
import json
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubeforge import space as space_module
from cubeforge.adjacent import build_adjacent_family
from cubeforge.errors import BadSpec, NegativeDistance, SymmetryViolation, ZeroDistance
from cubeforge.labeling import build_labels
from cubeforge.nets import build_reference_hierarchy
from cubeforge.space import (QuasiMetricSpace, ball,
                             generate_space, validate_quasi_metric)

from bruteforce import ball_scan, fault_scan, tri_const_scan


LINE4 = [0.0, 1.0, 3.0, 7.0]


def line4():
    return QuasiMetricSpace.from_line(LINE4)


def block_sweep(space):
    """Every ball, center by center, read off ball_blocks: (c, order,
    sorted_row, ends, radii) per center c in ascending order, where radii
    are the distinct positive distances from c plus one above the diameter
    and ball(c, radii[j]) is order[:ends[j]]."""
    top = space._above_diam()
    for ids, order, sorted_rows, last in space.ball_blocks():
        for c, o, row, end in zip(ids.tolist(), order, sorted_rows, last):
            ends = np.flatnonzero(end) + 1
            yield c, o, row, ends, np.append(row[ends[:-1]], top)


def radii(space, c):
    """The radii of every distinct ball centred at c, from the ball sweep."""
    return next(rs for x, *_, rs in block_sweep(space) if x == c)


def test_tri_const_metric_line_is_one():
    space = QuasiMetricSpace.from_line([0.0, 1.0, 2.0])
    assert space.profile.tri_const == 1.0
    d = space.table.tolist()
    assert tri_const_scan(d) == 1.0


def test_tri_const_squared_line_frozen():
    # |x - y|^2 on {0,1,2}: d(0,2)=4 против d(0,1)+d(1,2)=2, ratio 2
    base = QuasiMetricSpace.from_line([0.0, 1.0, 2.0])
    table = base.table ** 2
    assert tri_const_scan(table.tolist()) == 2.0  # oracle, frozen by hand
    space = QuasiMetricSpace.from_table(table)
    assert space.profile.tri_const == 2.0


def test_validate_rejects_asymmetry():
    t = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(SymmetryViolation):
        validate_quasi_metric(range(2), t)


def test_validate_rejects_zero_offdiagonal():
    t = np.zeros((2, 2))
    with pytest.raises(ZeroDistance):
        validate_quasi_metric(range(2), t)


def test_validate_rejects_negative():
    t = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(NegativeDistance):
        validate_quasi_metric(range(2), t)


def test_validate_rejects_nonzero_diagonal():
    t = np.array([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(BadSpec):
        validate_quasi_metric(range(2), t)


def test_profile_diam_and_min_gap():
    space = line4()
    assert space.profile.diam == 7.0
    assert space.profile.min_gap == 1.0


def test_single_point_profile():
    space = QuasiMetricSpace.from_table(np.zeros((1, 1)))
    assert space.profile.tri_const == 1.0
    assert space.profile.diam == 0.0
    assert space.profile.min_gap is None


def test_ball_is_strict():
    space = line4()
    # frozen: ball(0, 4) on {0,1,3,7} keeps 0,1,3 and drops 7
    assert ball(space, 0, 4.0).tolist() == [0, 1, 2]
    assert ball_scan(space.table.tolist(), 0, 4.0) == [0, 1, 2]
    # the point at distance exactly r stays out
    assert ball(space, 2, 4.0).tolist() == [0, 1, 2]


def test_ball_monotone_in_radius():
    rng = np.random.default_rng(7)
    space = QuasiMetricSpace.from_coords(rng.uniform(0, 1, (20, 2)))
    for c in range(0, 20, 5):
        prev = set()
        for r in radii(space, c):
            cur = set(ball(space, c, float(r)).tolist())
            assert prev <= cur
            prev = cur
        assert prev == set(range(20))


def test_separated_points_have_disjoint_shrunk_balls():
    spaces = [
        line4(),
        QuasiMetricSpace.from_coords(np.random.default_rng(5).uniform(0, 1, (12, 2))),
        QuasiMetricSpace.from_table(QuasiMetricSpace.from_line([0, 1, 2, 4, 8]).table ** 2),
    ]
    for space in spaces:
        tri = space.profile.tri_const
        d = space.table.tolist()
        for x in space.points():
            for y in space.points():
                if x == y:
                    continue
                for r in radii(space, x):
                    if space.dist(x, y) < r:
                        continue
                    shrunk = float(r) / (2.0 * tri)
                    bx = set(ball_scan(d, x, shrunk))
                    by = set(ball_scan(d, y, shrunk))
                    assert not (bx & by), (x, y, r)


# -- generators ------------------------------------------------------------


def test_geometric_line_shape():
    space = generate_space({"kind": "geometric_line", "levels": 3, "delta": 0.25})
    pos = space.coords.ravel().tolist()
    assert pos == [0.0, 1.0, 5.0, 21.0]
    assert space.profile.min_gap == 1.0
    assert space.profile.diam <= 0.25 ** -3


def test_geometric_line_rejects_coarse_delta():
    with pytest.raises(BadSpec):
        generate_space({"kind": "geometric_line", "levels": 3, "delta": 0.6})


def test_euclidean_cloud_deterministic():
    a = generate_space({"kind": "euclidean_cloud", "n": 50, "dim": 2, "seed": 11})
    b = generate_space({"kind": "euclidean_cloud", "n": 50, "dim": 2, "seed": 11})
    assert np.array_equal(a.coords, b.coords)
    assert a.profile.tri_const == 1.0


def test_snowflake_declared_constant():
    base = {"kind": "euclidean_cloud", "n": 40, "dim": 2, "seed": 2}
    space = generate_space({"kind": "power_snowflake", "base": base, "exponent": 2.0})
    assert space.profile.tri_const == 2.0  # 2^(s-1) on a metric base
    # sanity: measured ratios on the snowflake never exceed the declared bound
    assert tri_const_scan(space.table.tolist()) <= 2.0 + 1e-12


def test_snowflake_concave_keeps_metric():
    base = {"kind": "euclidean_cloud", "n": 30, "dim": 2, "seed": 4}
    space = generate_space({"kind": "power_snowflake", "base": base, "exponent": 0.5})
    assert space.profile.tri_const == 1.0


def test_generate_space_rejects_unknown_kind():
    with pytest.raises(BadSpec):
        generate_space({"kind": "klein_bottle"})
    with pytest.raises(BadSpec):
        generate_space({"levels": 3})
    with pytest.raises(BadSpec):
        generate_space({"kind": "power_snowflake", "exponent": -1.0,
                        "base": {"kind": "geometric_line", "levels": 2, "delta": 0.25}})


@pytest.mark.parametrize("spec, key", [
    ({"kind": "euclidean_cloud", "n": 12.7}, "'n'"),
    ({"kind": "euclidean_cloud", "n": True}, "'n'"),
    ({"kind": "euclidean_cloud", "n": 5, "dim": 2.9}, "'dim'"),
    ({"kind": "euclidean_cloud", "n": 5, "seed": 1.5}, "'seed'"),
    ({"kind": "euclidean_cloud", "n": 5, "box": False}, "'box'"),
    ({"kind": "euclidean_cloud", "n": 5, "dims": 3}, "'dims'"),
    ({"kind": "geometric_line", "levels": 3.5, "delta": 0.25}, "'levels'"),
    ({"kind": "geometric_line", "levels": 3, "delta": 0.25, "n": 4}, "'n'"),
    ({"kind": "power_snowflake", "exponent": True,
      "base": {"kind": "geometric_line", "levels": 2, "delta": 0.25}},
     "'exponent'"),
])
def test_generate_space_refuses_what_it_would_misread(spec, key):
    # each of these used to build a space: truncated, read as 1, or
    # silently missing the misspelled key
    with pytest.raises(BadSpec, match=key):
        generate_space(spec)


def test_generate_space_takes_whole_floats():
    spec = {"kind": "euclidean_cloud", "n": 12.0, "dim": 3, "seed": 2}
    space = generate_space(spec)
    assert space.n == 12 and space.generator["n"] == 12
    assert space.coords.shape == (12, 3)


def test_validate_generated_never_errors():
    specs = [
        {"kind": "euclidean_cloud", "n": 30, "dim": 3, "seed": 0},
        {"kind": "geometric_line", "levels": 4, "delta": 0.25},
        {"kind": "power_snowflake", "exponent": 1.5,
         "base": {"kind": "euclidean_cloud", "n": 25, "dim": 2, "seed": 1}},
    ]
    for spec in specs:
        space = generate_space(spec)
        profile = validate_quasi_metric(space.points(), space.table,
                                        declared_tri_const=space.profile.tri_const)
        assert profile.tri_const == space.profile.tri_const


def test_space_json_roundtrip():
    space = line4()
    doc = json.loads(json.dumps(space.to_json()))
    assert set(doc["profile"]) == {"A_0", "diam", "min_gap"}
    back = QuasiMetricSpace.from_json(doc)
    assert back.n == space.n
    assert np.allclose(back.table, space.table)
    assert back.profile == space.profile
    # documents written with the retired A_1 key still load
    doc["profile"]["A_1"] = 3
    assert QuasiMetricSpace.from_json(doc).profile == space.profile


@pytest.mark.parametrize("spec", [
    {"kind": "euclidean_cloud", "n": 60, "dim": 2, "box": 20.0, "seed": 72},
    {"kind": "geometric_line", "levels": 5, "delta": 1 / 144}],
    ids=["cloud", "line"])
def test_space_json_drops_a_table_its_coordinates_rebuild(spec):
    space = generate_space(spec)
    doc = json.loads(json.dumps(space.to_json()))
    assert "distances" not in doc
    back = QuasiMetricSpace.from_json(doc)
    assert back.table.tobytes() == space.table.tobytes()
    assert back.profile == space.profile
    assert back.generator == space.generator == spec


def test_snowflake_json_keeps_its_distances():
    # the snowflake carries its base's coordinates beside a d**s table, which
    # the coordinates do not rebuild
    space = generate_space({"kind": "power_snowflake", "exponent": 0.5,
                            "base": {"kind": "euclidean_cloud", "n": 30,
                                     "seed": 1}})
    doc = json.loads(json.dumps(space.to_json()))
    assert len(doc["distances"]) == 30 * 30
    back = QuasiMetricSpace.from_json(doc)
    assert back.table.tobytes() == space.table.tobytes()
    assert back.profile == space.profile


def test_row_oracle_json_is_unchanged(monkeypatch):
    coords = np.random.default_rng(8).uniform(0.0, 20.0, (40, 2))
    monkeypatch.setattr(space_module, "TABLE_CAP", 16)
    monkeypatch.setattr(space_module, "validate_quasi_metric", functools.partial(
        space_module.validate_quasi_metric, exhaustive_cap=16))
    space = QuasiMetricSpace.from_coords(coords)
    doc = json.loads(json.dumps(space.to_json()))
    assert set(doc) == {"n", "coords", "generator", "profile"}
    back = QuasiMetricSpace.from_json(doc)
    assert back.table is None and back.profile == space.profile
    assert all(back.dist_row(i).tobytes() == space.dist_row(i).tobytes()
               for i in range(40))


def test_row_oracle_snowflake_json_rebuilds_from_its_generator(monkeypatch):
    # above TABLE_CAP the snowflake's document holds its base's coordinates
    # and no distances, so from_json rebuilds it from its generator; an
    # inline base, which no descriptor rebuilds, is refused at write time
    monkeypatch.setattr(space_module, "TABLE_CAP", 16)
    monkeypatch.setattr(space_module, "validate_quasi_metric", functools.partial(
        space_module.validate_quasi_metric, exhaustive_cap=16))
    spec = {"kind": "power_snowflake", "exponent": 0.5,
            "base": {"kind": "euclidean_cloud", "n": 40, "dim": 2,
                     "box": 20.0, "seed": 8}}
    space = generate_space(spec)
    doc = json.loads(json.dumps(space.to_json()))
    assert space.table is None and "distances" not in doc
    back = QuasiMetricSpace.from_json(doc)
    assert back.table is None and back.generator == space.generator
    assert back.profile == space.profile
    assert all(back.dist_row(i).tobytes() == space.dist_row(i).tobytes()
               for i in range(40))
    with pytest.raises(BadSpec, match="n = 41 but the document's generator"):
        QuasiMetricSpace.from_json(dict(doc, n=41, coords=None))
    inline = generate_space(dict(spec, base=QuasiMetricSpace.from_coords(
        space.coords)))
    assert inline.generator["base"] == "inline"
    with pytest.raises(BadSpec, match="no table to write"):
        inline.to_json()


@pytest.mark.parametrize("edit, match", [
    ({"n": 7}, r"^n = 7 but the document's coordinates have shape \(5, 2\)"),
    ({"distances": [0.0] * 24}, r"^n = 5 needs 25 distances, the document "
                                r"lists 24$")])
def test_space_json_refuses_a_wrong_size(edit, match):
    space = QuasiMetricSpace.from_coords(
        np.random.default_rng(3).uniform(0.0, 1.0, (5, 2)))
    doc = dict(space.to_json(), **edit)
    with pytest.raises(BadSpec, match=match):
        QuasiMetricSpace.from_json(doc)
    if "distances" in edit:   # the same refusal without coordinates
        with pytest.raises(BadSpec, match=match):
            QuasiMetricSpace.from_json(dict(doc, coords=None))


def test_radii_conventions():
    space = line4()
    assert radii(space, 0).tolist()[:3] == [1.0, 3.0, 7.0]
    assert radii(space, 0)[-1] > space.profile.diam
    all_r = {float(r) for *_, rs in block_sweep(space) for r in rs[:-1]}
    assert all_r == {1.0, 2.0, 3.0, 4.0, 6.0, 7.0}


def test_realized_balls_dedupe():
    space = line4()
    masks, meta = space.realized_balls()
    assert len(masks) == len({m.tobytes() for m in masks})
    full = np.ones(4, dtype=bool)
    assert any((m == full).all() for m in masks)


def test_dist_rows_match_dist_row_for_table_and_row_oracle():
    table_space = line4()
    oracle = QuasiMetricSpace(4, block_fn=table_space.dist_rows)
    ids, cols = [3, 0, 3], [2, 1]
    for space in (table_space, oracle):
        assert space.dist_rows(ids).tolist() == \
            [table_space.dist_row(i).tolist() for i in ids]
        assert space.dist_rows(ids, cols).tolist() == [[4.0, 6.0], [3.0, 1.0], [4.0, 6.0]]
        assert space.dist_rows([]).shape == (0, 4)
        assert space.dist_pairs(ids, [2, 1, 1]).tolist() == [4.0, 1.0, 6.0]
        assert space.dist_pairs([], []).shape == (0,)


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_from_coords_table_matches_broadcast_form(dim):
    coords = np.random.default_rng(dim).uniform(0.0, 20.0, (75, dim))
    diff = coords[:, None, :] - coords[None, :, :]
    expect = np.sqrt((diff * diff).sum(axis=2))
    assert np.array_equal(QuasiMetricSpace.from_coords(coords).table, expect)


def test_from_coords_reads_rows_as_points():
    one = QuasiMetricSpace.from_coords([[3, 5]])
    assert one.n == 1 and one.coords.tolist() == [[3.0, 5.0]]
    assert QuasiMetricSpace.from_coords([[0, 0]]).n == 1
    # a flat list is still a line of points
    line = QuasiMetricSpace.from_coords([0.0, 2.0, 7.0])
    assert line.n == 3 and line.coords.shape == (3, 1)
    assert line.dist(0, 2) == 7.0


def test_from_coords_table_needs_no_difference_array():
    # the (n, n, 3) difference array alone would be three tables
    coords = np.random.default_rng(0).uniform(0.0, 1.0, (1024, 3))
    tracemalloc.start()
    try:
        table = space_module._coords_table(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * table.nbytes


# -- the coordinate kernel and the block oracle -------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       dim=st.one_of(st.integers(1, 20), st.sampled_from([137, 300])))
def test_kernel_matches_the_literal_sum(data, dim):
    # the per-axis kernel adds the squares in numpy's own order, so it is
    # the one-expression form bit for bit; axes of very different scales
    # make the order show. Ids and cols repeat, come unsorted or are empty.
    n = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    coords = rng.uniform(-1.0, 1.0, (n, dim)) * 10.0 ** rng.integers(-8, 9, dim)
    ids, cols = (np.array(data.draw(st.lists(st.integers(0, n - 1),
                                             max_size=9)), dtype=int)
                 for _ in range(2))
    diff = coords[ids][:, None, :] - coords[cols][None, :, :]
    expect = np.sqrt((diff * diff).sum(axis=-1))
    got = space_module._coord_dists(coords, ids, cols)
    assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def _cloud_family(spec):
    """A space of `spec` and its strict adjacent family's document."""
    space = generate_space(spec)
    hier = build_reference_hierarchy(space, 1 / 144, mode="strict")
    return space, json.dumps(build_adjacent_family(build_labels(hier)).to_json())


@pytest.mark.parametrize("exponent", [None, 0.5])
def test_block_oracle_matches_the_dense_table(monkeypatch, exponent):
    # the same 90 points below and above a lowered TABLE_CAP: a plain cloud
    # and its power_snowflake give the same bytes through every reader
    spec = {"kind": "euclidean_cloud", "n": 90, "dim": 2, "box": 20.0,
            "seed": 4}
    if exponent is not None:
        spec = {"kind": "power_snowflake", "exponent": exponent, "base": spec}
    dense, dense_doc = _cloud_family(spec)
    monkeypatch.setattr(space_module, "TABLE_CAP", 16)
    monkeypatch.setattr(space_module, "validate_quasi_metric", functools.partial(
        space_module.validate_quasi_metric, exhaustive_cap=16))
    oracle, oracle_doc = _cloud_family(spec)
    assert dense.table is not None and oracle.table is None
    assert oracle.profile == dense.profile and oracle_doc == dense_doc
    rng = np.random.default_rng(0)
    ids, cols = rng.integers(0, 90, 70), rng.integers(0, 90, 13)
    for read in (lambda s: np.array([s.dist_row(i) for i in range(90)]),
                 lambda s: s.dist_rows(ids), lambda s: s.dist_rows(ids, cols),
                 lambda s: s.dist_rows([], cols),
                 lambda s: s.dist_pairs(ids[:13], cols),
                 lambda s: np.array([s.dist(7, j) for j in range(90)]),
                 lambda s: [a.tobytes() for block in s.ball_blocks()
                            for a in block]):
        assert np.asarray(read(oracle)).tobytes() \
            == np.asarray(read(dense)).tobytes()
    assert dense.table.tobytes() == oracle.dist_rows(np.arange(90)).tobytes()


def test_coordinate_oracle_holds_no_table():
    # 3000 points are above TABLE_CAP: building and certifying the space
    # reads its distances a block at a time; a table would be 72 MB
    coords = np.random.default_rng(1).uniform(0.0, 1.0, (3000, 2))
    tracemalloc.start()
    try:
        space = QuasiMetricSpace.from_coords(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.table is None and space.profile.tri_const == 1.0
    assert peak < 8e6


def test_certificate_floor_sends_close_points_to_the_exact_path():
    # the floor is sqrt(dim * 2**-1020) = 2**-510 in one dimension: points
    # 2**-512 apart are in range for every step but the certificate, and
    # take the exact kernel; points 2**-510 apart are certified
    with _counting("_tri_const_table") as kernel:
        for gap, exact in ((2.0 ** -512, 1), (2.0 ** -510, 0)):
            space = QuasiMetricSpace.from_coords([[0.0], [gap], [1.0]])
            assert space.profile.min_gap == gap
            assert space.profile.tri_const == 1.0
            assert kernel.call_count == exact
            kernel.reset_mock()


# -- validation against the naive scans ---------------------------------------


def _table(pts, power, norm):
    pts = np.asarray(pts, dtype=float)
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    if norm == "l1":
        d = diff.sum(axis=2)
    elif norm == "max":
        d = diff.max(axis=2)
    else:
        d = np.sqrt((diff * diff).sum(axis=2))
    return d ** power


@st.composite
def powered_tables(draw, side=(3, 50)):
    """Distance tables of small integer point sets (a side-3 grid makes
    ties everywhere) under the l1, max or l2 norm, raised to a power."""
    side = draw(st.sampled_from(side))
    pts = draw(st.lists(st.tuples(st.integers(0, side), st.integers(0, side)),
                        min_size=2, max_size=10, unique=True))
    return _table(pts, draw(st.sampled_from([0.5, 1.0, 1.7, 2.0, 3.0])),
                  draw(st.sampled_from(["l1", "max", "l2"])))


@st.composite
def nearly_symmetric_tables(draw):
    """A powered table whose upper triangle is scaled by 1 + j * 1e-13,
    0 < |j| <= 5: asymmetric, but within the rtol 1e-12 symmetry check."""
    d = draw(powered_tables())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jitter = rng.choice([-5, -3, -1, 1, 3, 5], size=d.shape)
    return d * (1.0 + np.triu(jitter, 1) * 1e-13)


@pytest.mark.parametrize("block", [space_module._BLOCK, 3])
@settings(max_examples=150, deadline=None)
@given(d=st.one_of(powered_tables(), powered_tables(side=(3,)),
                   nearly_symmetric_tables()))
def test_exact_tri_const_matches_scan(block, d):
    # block 3 splits these small tables into several row blocks, so the
    # half-square pass of exactly symmetric tables runs as well
    with mock.patch.object(space_module, "_BLOCK", block):
        assert QuasiMetricSpace.from_table(d).profile.tri_const \
            == tri_const_scan(d.tolist())


FAULTS = ["negative", "diagonal", "zero", "zero_pair", "asymmetric",
          "nonfinite"]


@settings(max_examples=150, deadline=None)
@given(d=powered_tables(), data=st.data())
def test_validation_errors_match_fault_scan(d, data):
    n = len(d)
    for _ in range(data.draw(st.integers(0, 4))):
        # faults crowd into the first rows, so rows often hold several
        kind = data.draw(st.sampled_from(FAULTS))
        x, y = data.draw(st.integers(0, min(n - 1, 2))), data.draw(st.integers(0, n - 1))
        if kind == "diagonal":
            d[x, x] = 0.5
        elif x == y:
            continue
        elif kind == "negative":
            d[x, y] = -1.0
        elif kind == "nonfinite":
            d[x, y] = data.draw(st.sampled_from([math.nan, math.inf,
                                                 -math.inf]))
        elif kind == "asymmetric":
            d[x, y] *= 1.5
        else:
            d[x, y] = 0.0
            if kind == "zero_pair":
                d[y, x] = 0.0
    expect = fault_scan(d.tolist())
    if expect is None:
        validate_quasi_metric(range(n), d)
        return
    kind, x, y = expect
    with pytest.raises((BadSpec, NegativeDistance, SymmetryViolation,
                        ZeroDistance)) as err:
        validate_quasi_metric(range(n), d)
    e = err.value
    if kind in ("diagonal", "nonfinite"):
        assert type(e) is BadSpec and str(e).startswith(f"d({x},{y}) = ")
    else:
        typ = {"negative": NegativeDistance, "zero": ZeroDistance,
               "asymmetric": SymmetryViolation}[kind]
        assert type(e) is typ and (e.x, e.y) == (x, y)


def test_large_asymmetric_table_raises():
    pos = np.random.default_rng(0).uniform(0.0, 100.0, 600)
    table = np.abs(pos[:, None] - pos[None, :])
    table[3, 7] *= 5.0
    with pytest.raises(SymmetryViolation) as err:
        QuasiMetricSpace.from_table(table)
    e = err.value
    assert (e.x, e.y, e.dxy, e.dyx) == (3, 7, table[3, 7], table[7, 3])


def test_sampled_path_needs_a_declared_bound():
    # |x - y|^2 on 0..7: A0 = 2, reached at z halfway between x and y
    table = QuasiMetricSpace.from_line(np.arange(8.0)).table ** 2
    assert tri_const_scan(table.tolist()) == 2.0
    with pytest.raises(BadSpec, match="n = 8"):
        validate_quasi_metric(range(8), table, exhaustive_cap=4)
    with pytest.raises(BadSpec, match="exceeds declared bound"):
        validate_quasi_metric(range(8), table, declared_tri_const=1.5,
                              exhaustive_cap=4)
    for distance in (table, lambda ids, cols: table[np.ix_(ids, cols)]):
        profile = validate_quasi_metric(range(8), distance,
                                        declared_tri_const=2.0,
                                        exhaustive_cap=4)
        assert (profile.tri_const, profile.diam, profile.min_gap) == \
            (2.0, 49.0, 1.0)


def test_row_oracle_faults_raise_with_their_witness():
    table = QuasiMetricSpace.from_line(np.arange(6.0)).table.copy()
    table[4, 1] = 0.0
    table[4, 2] = -3.0
    with pytest.raises(NegativeDistance) as err:
        validate_quasi_metric(range(6),
                              lambda ids, cols: table[np.ix_(ids, cols)],
                              declared_tri_const=1.0, exhaustive_cap=2)
    assert (err.value.x, err.value.y) == (4, 2)


# -- the rounding-error certificate of coordinate spaces ----------------------


@st.composite
def scaled_clouds(draw):
    """Small clouds of dim 1-3 with near-collinear points z = x + t (y - x)
    (t = 0 or 1 repeats a point), scaled by 1e-150 to 1e150, or past that
    range, where some difference is too small to certify or some square
    overflows."""
    dim = draw(st.integers(1, 3))
    coord = st.floats(-1e3, 1e3)
    pts = [list(p) for p in draw(st.lists(st.tuples(*[coord] * dim), min_size=2,
                                          max_size=5, unique=True))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(pts) - 1))
        j = draw(st.integers(0, len(pts) - 2))
        x, y = pts[i], pts[j + (j >= i)]
        t = draw(st.one_of(st.sampled_from([1e-12, 0.5, 1.0 / 3.0]),
                           st.floats(0.0, 1.0)))
        pts.append([a + t * (b - a) for a, b in zip(x, y)])
    return np.array(pts) * 10.0 ** draw(st.one_of(
        st.integers(-150, 150), st.sampled_from([-165, -158, 153, 160])))


@settings(max_examples=300, deadline=None)
@given(coords=scaled_clouds())
def test_certificate_bounds_the_exact_constant(coords):
    n, dim = coords.shape
    u = Fraction(1, 2 ** 53)
    m = dim + 4
    gamma = m * u / (1 - m * u)
    with np.errstate(over="ignore"):
        tables = [space_module._coords_table(coords)]
    if dim == 1:   # from_line's |a - b|
        tables.append(np.abs(coords - coords.T))
    for table in tables:
        d = table.tolist()
        if not all(math.isfinite(v) for row in d for v in row):
            # the positivity pass refuses it before any certificate is read
            with pytest.raises(BadSpec):
                validate_quasi_metric(range(n), table, declared_tri_const=1.0,
                                      coord_dim=dim)
            continue
        gap = min(d[x][y] for x in range(n) for y in range(n) if x != y)
        bound = space_module._euclid_certificate(dim, gap)
        if gap < math.sqrt(dim * 2.0 ** -1020):
            assert bound is None
            continue
        assert bound == 1.0 + m * 2.0 ** -51 >= 1 / (1 - 2 * m * u)
        assert tri_const_scan(d) <= bound
        # every entry is the exact distance times 1 + theta, |theta| <= gamma
        for x in range(n):
            for y in range(n):
                exact = sum((Fraction(a) - Fraction(b)) ** 2
                            for a, b in zip(coords[x], coords[y]))
                got = Fraction(d[x][y]) ** 2
                assert (1 - gamma) ** 2 * exact <= got <= (1 + gamma) ** 2 * exact
    # the coordinate oracle's positivity pass, a block at a time, reads the
    # table's gap: a certified table is certified there too, without sampling
    try:
        gap = validate_quasi_metric(range(n), tables[0]).min_gap
    except (BadSpec, ZeroDistance):   # not finite, or a repeated point
        return
    if space_module._euclid_certificate(dim, gap) is None:
        return
    oracle = functools.partial(space_module._coord_dists, coords)
    with _counting("_tri_const_sampled") as sampled:
        assert validate_quasi_metric(range(n), oracle, declared_tri_const=1.0,
                                     exhaustive_cap=0, coord_dim=dim) \
            == validate_quasi_metric(range(n), tables[0],
                                     declared_tri_const=1.0, coord_dim=dim)
        assert sampled.call_count == 0


def _counting(name):
    return mock.patch.object(space_module, name,
                             wraps=getattr(space_module, name))


def test_coordinate_spaces_skip_the_exact_kernel():
    cloud = {"kind": "euclidean_cloud", "n": 60, "dim": 3, "seed": 5}
    with _counting("_tri_const_table") as kernel:
        spaces = [generate_space(cloud),
                  generate_space({"kind": "geometric_line", "levels": 6,
                                  "delta": 0.25}),
                  QuasiMetricSpace.from_coords([[0, 0], [3, 4], [6, 8]]),
                  QuasiMetricSpace.from_line(LINE4)]
        assert kernel.call_count == 0
        assert [s.profile.tri_const for s in spaces] == [1.0] * 4
        QuasiMetricSpace.from_table(spaces[0].table, declared_tri_const=1.0)
        assert kernel.call_count == 1
        generate_space({"kind": "power_snowflake", "base": cloud,
                        "exponent": 0.5})
        assert kernel.call_count == 2


@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e154])
@pytest.mark.parametrize("declared", [None, 0.5, 1.0])
def test_uncertified_coordinates_take_the_exact_kernel(declared, scale):
    # no bound, a bound below the certificate, or out of range (tiny
    # distances, or squares that overflow): the same kernel, profile and
    # refusal as a plain table of the same distances; an overflowed table
    # is refused before any kernel runs
    coords = np.random.default_rng(3).uniform(0.0, 20.0, (30, 2)) * scale
    with np.errstate(over="ignore"):
        table = space_module._coords_table(coords)
    finite = bool(np.isfinite(table).all())

    def outcome(build):
        try:
            return build(declared_tri_const=declared).profile
        except BadSpec as e:
            return str(e)

    with _counting("_tri_const_table") as kernel, \
            np.errstate(over="ignore", invalid="ignore"):
        expect = outcome(functools.partial(QuasiMetricSpace.from_table, table))
        assert kernel.call_count == finite
        got = outcome(functools.partial(QuasiMetricSpace.from_coords, coords))
    certified = declared == 1.0 and scale == 1.0
    assert kernel.call_count == (0 if not finite else 1 if certified else 2)
    assert repr(got) == repr(expect)
    assert finite == (scale != 1e154)
    if not finite:
        assert "is not a finite distance" in expect
    elif declared == 0.5:
        assert "exceeds declared bound 0.5" in expect


def test_non_finite_distances_are_refused():
    # the 8-point line with d(2, 5) = d(5, 2) = NaN, as a block oracle read
    # a block at a time above the exhaustive cap and as a dense table
    pos = np.arange(8.0)
    table = np.abs(pos[:, None] - pos[None, :])
    table[2, 5] = table[5, 2] = np.nan
    for distance in (lambda ids, cols: table[np.ix_(ids, cols)], table):
        with pytest.raises(BadSpec, match=r"^d\(2,5\) = nan is not a finite"):
            validate_quasi_metric(range(8), distance, declared_tri_const=1.0,
                                  exhaustive_cap=4)
    # a box-20 cloud times 1e154: the largest squares overflow, and the
    # first infinite distance in row order is named
    coords = np.random.default_rng(3).uniform(0.0, 20.0, (30, 2)) * 1e154
    with np.errstate(over="ignore"):
        table = space_module._coords_table(coords)
        x, y = np.argwhere(~np.isfinite(table))[0]
        for build, arg in ((QuasiMetricSpace.from_coords, coords),
                           (QuasiMetricSpace.from_table, table)):
            with pytest.raises(BadSpec,
                               match=rf"^d\({x},{y}\) = inf is not a finite"):
                build(arg, declared_tri_const=1.0)


def test_coordinate_oracle_is_certified_above_the_cap(monkeypatch):
    coords = np.random.default_rng(8).uniform(0.0, 20.0, (40, 3))
    dense = QuasiMetricSpace.from_coords(coords)
    # lower both caps so 40 points take the row-oracle, sampled-check path
    monkeypatch.setattr(space_module, "TABLE_CAP", 16)
    monkeypatch.setattr(space_module, "validate_quasi_metric", functools.partial(
        space_module.validate_quasi_metric, exhaustive_cap=16))
    with _counting("_tri_const_sampled") as sampled, \
            _counting("_tri_const_table") as kernel:
        oracle = QuasiMetricSpace.from_coords(coords)
        assert oracle.table is None
        rows = np.array([oracle.dist_row(i) for i in range(40)])
        assert rows.tobytes() == dense.table.tobytes()
        assert oracle.profile == dense.profile
        assert (sampled.call_count, kernel.call_count) == (0, 0)
        snow = generate_space({"kind": "power_snowflake", "base": oracle,
                               "exponent": 0.5})
        assert snow.table is None and snow.profile.tri_const == 1.0
        assert (sampled.call_count, kernel.call_count) == (1, 0)
