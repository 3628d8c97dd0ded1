import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubeforge import space as space_module
from cubeforge.errors import BadSpec, NegativeDistance, SymmetryViolation, ZeroDistance
from cubeforge.space import (QuasiMetricSpace, ball, doubling_estimate,
                             generate_space, validate_quasi_metric)

from bruteforce import ball_scan, fault_scan, tri_const_scan


LINE4 = [0.0, 1.0, 3.0, 7.0]


def line4():
    return QuasiMetricSpace.from_line(LINE4)


def radii(space, c):
    """The radii of every distinct ball centred at c, from the ball sweep."""
    return next(space.ball_sweep([c]))[4]


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


def test_doubling_two_points_frozen():
    space = QuasiMetricSpace.from_line([0.0, 1.0])
    # just above r=2 the ball {0,1} needs two unit balls
    assert doubling_estimate(space) == 2


def test_doubling_grid16_range():
    space = QuasiMetricSpace.from_line(list(range(16)))
    a1 = doubling_estimate(space)
    assert 2 <= a1 <= 4


def test_packing_bound_small_spaces():
    # any ball holds at most A1 * delta^-a1 centers of disjoint delta*r balls
    spaces = [
        line4(),
        QuasiMetricSpace.from_line(list(range(12))),
        QuasiMetricSpace.from_coords(np.random.default_rng(3).uniform(0, 1, (24, 2))),
    ]
    for space in spaces:
        a1 = doubling_estimate(space)
        bound_exp = math.log2(a1)
        d = space.table.tolist()
        for sub in (1.0, 0.5, 0.25):
            limit = a1 * sub ** (-bound_exp)
            for c in space.points():
                for r in radii(space, c):
                    members = ball_scan(d, c, float(r))
                    packed = _greedy_packing(d, members, sub * float(r))
                    assert len(packed) <= limit + 1e-9, (c, r, sub)


def _greedy_packing(d, members, sub_radius):
    chosen = []
    chosen_balls = []
    for p in members:
        b = set(ball_scan(d, p, sub_radius))
        if all(not (b & q) for q in chosen_balls):
            chosen.append(p)
            chosen_balls.append(b)
    return chosen


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
    space.profile.doubling_count = doubling_estimate(space)
    blob = json.dumps(space.to_json())
    back = QuasiMetricSpace.from_json(json.loads(blob))
    assert back.n == space.n
    assert np.allclose(back.table, space.table)
    assert back.profile.tri_const == space.profile.tri_const
    assert back.profile.doubling_count == space.profile.doubling_count


def test_radii_conventions():
    space = line4()
    assert radii(space, 0).tolist()[:3] == [1.0, 3.0, 7.0]
    assert radii(space, 0)[-1] > space.profile.diam
    all_r = {float(r) for *_, rs in space.ball_sweep() for r in rs[:-1]}
    assert all_r == {1.0, 2.0, 3.0, 4.0, 6.0, 7.0}


def test_realized_balls_dedupe():
    space = line4()
    masks, meta = space.realized_balls()
    assert len(masks) == len({m.tobytes() for m in masks})
    full = np.ones(4, dtype=bool)
    assert any((m == full).all() for m in masks)


def test_dist_rows_match_dist_row_for_table_and_row_oracle():
    table_space = line4()
    oracle = QuasiMetricSpace(4, row_fn=table_space.dist_row)
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


FAULTS = ["negative", "diagonal", "zero", "zero_pair", "asymmetric"]


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
    if kind == "diagonal":
        assert type(e) is BadSpec and str(e).startswith(f"d({x},{x}) = ")
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
    for distance in (table, lambda i: table[i]):
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
        validate_quasi_metric(range(6), lambda i: table[i],
                              declared_tri_const=1.0, exhaustive_cap=2)
    assert (err.value.x, err.value.y) == (4, 2)
