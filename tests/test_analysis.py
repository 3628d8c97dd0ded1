"""Measures, maximal operators, weight constants, and the transfer checks."""
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from cubeforge import adjacent, analysis
from cubeforge.adjacent import (CubeQuery, build_adjacent_family,
                                find_containing_cube, find_containing_cubes,
                                pair_to_index, verify_covering)
from cubeforge.analysis import (Measure, _ball_values,
                                _containing_cube_masses, _dyadic_values,
                                _instance_constants, _iterated_violations,
                                _max_ratio, ap_constant, bmo_norm,
                                doubling_constant, lp_norm, maximal_function,
                                verify_comparability, verify_weighted_bounds)
from cubeforge.constants import _REL_TOL, _TOL
from cubeforge.cubes import CubeSystem, build_cube_system, build_partial_order
from cubeforge.errors import (BadSpec, ConfigError, CubeforgeError,
                              PreconditionFail)
from cubeforge.labeling import build_labels
from cubeforge.nets import build_reference_hierarchy
import cubeforge.space as space_module
from cubeforge.random_systems import OmegaSampler
from cubeforge.space import QuasiMetricSpace, ball_radii, generate_space
from test_adjacent import (cloud_family, corrupt, geoline_family, grouped,
                           repiece)
from test_cubes import line4_order
from test_space import block_sweep
from test_selection import cloud_labels

DELTA = 1.0 / 144.0


def two_point():
    return QuasiMetricSpace.from_line([0.0, 1.0]), np.array([0.5, 0.5])


def grid64():
    return QuasiMetricSpace.from_line(np.arange(64.0)), np.ones(64)


def line_family(space, mode="strict"):
    hier = build_reference_hierarchy(space, DELTA, mode=mode)
    return build_adjacent_family(build_labels(hier))


def dense_rows(space):
    """Plain list-of-lists distance table for the brute-force scans."""
    return [[space.dist(i, j) for j in range(space.n)] for i in range(space.n)]


def member_lists(system):
    return [[c.members.tolist() for c in system.cubes_at(k)]
            for k in system.level_ks()]


# -- domain types -------------------------------------------------------------

def test_measure_validates_weights():
    with pytest.raises(ConfigError):
        Measure([1.0, 0.0])
    with pytest.raises(ConfigError):
        Measure(np.array([]))
    with pytest.raises(ConfigError):
        Measure(np.ones((2, 2)))


# -- doubling -----------------------------------------------------------------

def test_doubling_single_point():
    space = QuasiMetricSpace.from_table(np.zeros((1, 1)), declared_tri_const=1.0)
    assert doubling_constant(space, np.array([7.0])) == (1.0, 0.0)


def test_doubling_two_point_frozen():
    space, mu = two_point()
    c, e = doubling_constant(space, mu)
    assert c == 2.0
    assert e == 1.0


def test_doubling_grid_frozen_and_oracle():
    space, mu = grid64()
    c, e = doubling_constant(space, mu)
    assert c == 3.0
    assert e == pytest.approx(np.log2(3.0))
    assert c == bruteforce.doubling_scan(dense_rows(space), list(mu))
    w = np.random.default_rng(5).uniform(0.5, 2.0, 64)
    c2, _ = doubling_constant(space, w)
    assert c2 == pytest.approx(bruteforce.doubling_scan(dense_rows(space),
                                                        list(w)))


# -- maximal operators --------------------------------------------------------

def test_maximal_two_point_frozen():
    space, mu = two_point()
    f = np.array([1.0, 0.0])
    assert maximal_function(space, mu, f, "ball") == pytest.approx([1.0, 0.5])
    assert maximal_function(space, mu, f, "sharp") == pytest.approx([0.5, 0.5])


def test_maximal_constant_function():
    space, mu = grid64()
    fam = line_family(space)
    f = np.full(64, -3.0)
    assert maximal_function(space, mu, f, "ball") == pytest.approx(np.full(64, 3.0))
    assert maximal_function(space, mu, f, "dyadic",
                            system=fam.system(1)) == pytest.approx(np.full(64, 3.0))
    assert np.all(maximal_function(space, mu, f, "sharp") == 0.0)
    assert np.all(maximal_function(space, mu, f, "dyadic_sharp",
                                   system=fam.system(1)) == 0.0)


def test_maximal_matches_bruteforce():
    space, _ = grid64()
    rng = np.random.default_rng(2)
    mu = rng.uniform(0.5, 2.0, 64)
    f = rng.normal(size=64)
    d = dense_rows(space)
    assert maximal_function(space, mu, f, "ball") == pytest.approx(
        bruteforce.maximal_scan(d, list(mu), list(f)))
    assert maximal_function(space, mu, f, "sharp") == pytest.approx(
        bruteforce.sharp_scan(d, list(mu), list(f)))


def test_weighted_maximal_is_reweighted_average():
    """Passing a weight must equal running the plain operator against the
    measure omega * mu."""
    space, _ = grid64()
    rng = np.random.default_rng(3)
    mu = rng.uniform(0.5, 2.0, 64)
    w = np.exp(rng.normal(size=64))
    f = rng.normal(size=64)
    got = maximal_function(space, mu, f, "ball", weight=w)
    assert got == pytest.approx(maximal_function(space, mu * w, f, "ball"))
    assert got == pytest.approx(
        bruteforce.maximal_scan(dense_rows(space), list(mu * w), list(f)))


def test_maximal_variant_guards():
    space, mu = two_point()
    with pytest.raises(ConfigError):
        maximal_function(space, mu, [1.0, 0.0], "median")
    with pytest.raises(ConfigError):
        maximal_function(space, mu, [1.0, 0.0], "dyadic")


def test_dyadic_matches_chain_oracle():
    space, mu = grid64()
    fam = line_family(space)
    rng = np.random.default_rng(4)
    f = rng.normal(size=64)
    for t in (1, fam.n_systems):
        sys_t = fam.system(t)
        lists = member_lists(sys_t)
        assert maximal_function(space, mu, f, "dyadic", system=sys_t) == \
            pytest.approx(bruteforce.dyadic_maximal_scan(lists, list(mu), list(f)))
        assert maximal_function(space, mu, f, "dyadic_sharp", system=sys_t) == \
            pytest.approx(bruteforce.dyadic_sharp_scan(lists, list(mu), list(f)))


def dyadic_calls(space, system):
    """The four dyadic operators on the line4 space and `system`."""
    mu, f = np.ones(4), np.arange(4.0)
    return [lambda: maximal_function(space, mu, f, "dyadic", system=system),
            lambda: maximal_function(space, mu, f, "dyadic_sharp",
                                     system=system),
            lambda: ap_constant(space, mu, f + 1, 2.0, "dyadic", system=system),
            lambda: bmo_norm(space, mu, f, "dyadic", system=system)]


DYADIC_READERS = {
    "maximal_function": lambda space, system: maximal_function(
        space, np.ones(space.n), np.arange(space.n), "dyadic", system=system),
    "ap_constant": lambda space, system: ap_constant(
        space, np.ones(space.n), np.arange(space.n) + 1.0, 2.0, "dyadic",
        system=system),
    "bmo_norm": lambda space, system: bmo_norm(
        space, np.ones(space.n), np.arange(space.n), "dyadic", system=system)}


@pytest.mark.parametrize("reader", DYADIC_READERS)
def test_dyadic_readers_refuse_a_system_of_another_space(reader):
    # a system of the 30-point cloud raised numpy's bare ValueError on the
    # 40-point one, and one of another 40-point cloud read its own cubes
    call = DYADIC_READERS[reader]
    fam = cloud_family(n=40, seed=3, box=20.0)
    call(fam.space, fam.system(1))
    for n, seed in ((30, 4), (40, 5)):
        other = cloud_family(n=n, seed=seed, box=20.0).system(1)
        with pytest.raises(PreconditionFail, match="share one space"):
            call(fam.space, other)


def test_dyadic_operators_refuse_an_uncovered_point():
    # emptying fine cube 2 of the line4 system leaves point 2 in no cube;
    # numpy's bincount used to fail on its assign entry -1
    space, levels, order = line4_order()
    doc = build_cube_system(space, levels, order).to_json()
    doc["levels"][1]["cubes"][2]["members"] = []
    system = CubeSystem.from_json(doc, space)
    for call in dyadic_calls(space, system):
        with pytest.raises(PreconditionFail,
                           match="level 0: point 2 lies in no cube"):
            call()


def test_dyadic_operators_refuse_an_empty_cube():
    # coarse cube 0 hands its points to cube 1: its zero mass made the
    # dyadic A_p drop the whole level (max(best, nan) keeps best)
    space, levels, order = line4_order()
    doc = build_cube_system(space, levels, order).to_json()
    doc["levels"][0]["cubes"][0]["members"] = []
    doc["levels"][0]["cubes"][1]["members"] = [0, 1, 2, 3]
    system = CubeSystem.from_json(doc, space)
    for call in dyadic_calls(space, system):
        with pytest.raises(PreconditionFail,
                           match="level -1: cube 0 holds no point"):
            call()


ENTRY_ARGS = [
    ("maximal_function", "mu"), ("maximal_function", "f"),
    ("maximal_function", "weight"), ("maximal_function_dyadic", "f"),
    ("ap_constant", "mu"), ("ap_constant", "omega"),
    ("ap_constant_dyadic", "omega"), ("bmo_norm", "f"),
    ("bmo_norm_dyadic", "mu"), ("doubling_constant", "mu"),
    ("verify_comparability", "mu"),
    ("verify_comparability", "sample_functions[1]"),
    ("verify_weighted_bounds", "mu"), ("verify_weighted_bounds", "omega"),
    ("verify_weighted_bounds", "f"), ("lp_norm", "omega")]


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("entry, arg", ENTRY_ARGS)
def test_entry_points_refuse_vectors_of_the_wrong_length(entry, arg, extra):
    # a longer vector used to be cut to the space's n points without a word,
    # a shorter one raised a bare numpy ValueError
    space = QuasiMetricSpace.from_line(np.arange(8.0))
    fam, n = line_family(space), space.n
    sys1 = fam.system(1)
    bad = np.ones(n + extra)
    good = {"mu": np.ones(n), "f": np.linspace(-1.0, 1.0, n),
            "weight": None, "omega": np.ones(n),
            "sample_functions[1]": np.ones(n)}
    a = {**good, arg: bad}
    calls = {
        "maximal_function": lambda: maximal_function(
            space, a["mu"], a["f"], weight=a["weight"]),
        "maximal_function_dyadic": lambda: maximal_function(
            space, a["mu"], a["f"], "dyadic", system=sys1),
        "ap_constant": lambda: ap_constant(space, a["mu"], a["omega"], 2.0),
        "ap_constant_dyadic": lambda: ap_constant(
            space, a["mu"], a["omega"], 2.0, "dyadic", system=sys1),
        "bmo_norm": lambda: bmo_norm(space, a["mu"], a["f"]),
        "bmo_norm_dyadic": lambda: bmo_norm(space, a["mu"], a["f"],
                                            "dyadic", system=sys1),
        "doubling_constant": lambda: doubling_constant(space, a["mu"]),
        "verify_comparability": lambda: verify_comparability(
            fam, a["mu"], [a["f"], a["sample_functions[1]"]]),
        "verify_weighted_bounds": lambda: verify_weighted_bounds(
            fam, a["mu"], a["omega"], a["f"], 2.0),
        "lp_norm": lambda: lp_norm(a["f"], a["mu"], a["omega"], 2.0)}
    with pytest.raises(ConfigError, match=(
            rf"^{re.escape(arg)} has shape \({n + extra},\), "
            rf"expected \({n},\)$")):
        calls[entry]()


def test_dyadic_can_exceed_ball_average():
    """Six points where a middle cube {a, b} is no ball: every ball holding
    both a and b picks up two bystanders, so the cube average of the
    indicator of b beats every ball average at a. The comparability between
    the two operators genuinely needs its constant."""
    space = QuasiMetricSpace.from_line([-2.5, -1.5, 0.0, 4.0, 5.5, 6.5])
    levels = [[2], [0, 2, 5], [0, 1, 2, 3, 4, 5]]
    order = build_partial_order(space, levels, 0.5, 1.0, 9.0, 1.0, k_top=0,
                                mode="exploratory")
    system = build_cube_system(space, levels, order)
    assert system.cube(1, 1).members.tolist() == [2, 3]
    mu = np.ones(6)
    f = np.zeros(6)
    f[3] = 1.0
    md = maximal_function(space, mu, f, "dyadic", system=system)
    mb = maximal_function(space, mu, f, "ball")
    assert md[2] == 0.5
    assert mb[2] == 0.25


def test_monotone_and_sublinear():
    space, mu = grid64()
    fam = line_family(space)
    sys1 = fam.system(1)
    rng = np.random.default_rng(6)
    f = rng.normal(size=64)
    g = f + rng.uniform(0.0, 1.0, 64)
    kw = {"ball": {}, "sharp": {}, "dyadic": {"system": sys1},
          "dyadic_sharp": {"system": sys1}}
    for variant, extra in kw.items():
        mf = maximal_function(space, mu, f, variant, **extra)
        mg = maximal_function(space, mu, g, variant, **extra)
        msum = maximal_function(space, mu, f + g, variant, **extra)
        assert np.all(msum <= mf + mg + 1e-12), variant
        if variant in ("ball", "dyadic"):
            bigger = maximal_function(space, mu, np.abs(f) + 1.0, variant, **extra)
            assert np.all(mf <= bigger + 1e-12), variant


def test_nonnegative_f_below_dyadic_maximal():
    space, mu = grid64()
    fam = line_family(space)
    f = np.abs(np.random.default_rng(7).normal(size=64))
    for t in range(1, fam.n_systems + 1, 9):
        md = maximal_function(space, mu, f, "dyadic", system=fam.system(t))
        assert np.all(f <= md + 1e-12)


# -- A_p and oscillation ------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ap_unit_weight(p):
    space, mu = grid64()
    fam = line_family(space)
    one = np.ones(64)
    assert ap_constant(space, mu, one, p, "ball") == pytest.approx(1.0)
    assert ap_constant(space, mu, one, p, "dyadic",
                       system=fam.system(1)) == pytest.approx(1.0)


def test_ap_two_point_frozen():
    space, mu = two_point()
    assert ap_constant(space, mu, np.array([4.0, 1.0]), 2.0) == \
        pytest.approx(25.0 / 16.0)


def test_ap_duality():
    space, mu = grid64()
    fam = line_family(space)
    w = np.exp(np.random.default_rng(8).normal(size=64))
    p = 2.5
    sigma = w ** (-1.0 / (p - 1.0))
    p_conj = p / (p - 1.0)
    assert ap_constant(space, mu, w, p) == pytest.approx(
        ap_constant(space, mu, sigma, p_conj) ** (p - 1.0))
    sys1 = fam.system(1)
    assert ap_constant(space, mu, w, p, "dyadic", system=sys1) == pytest.approx(
        ap_constant(space, mu, sigma, p_conj, "dyadic", system=sys1) ** (p - 1.0))


def test_ap_matches_bruteforce():
    space, _ = grid64()
    fam = line_family(space)
    rng = np.random.default_rng(9)
    mu = rng.uniform(0.5, 2.0, 64)
    w = np.exp(rng.normal(size=64))
    d = dense_rows(space)
    assert ap_constant(space, mu, w, 2.0) == pytest.approx(
        bruteforce.ap_scan(d, list(mu), list(w), 2.0))
    sys1 = fam.system(1)
    assert ap_constant(space, mu, w, 2.0, "dyadic", system=sys1) == pytest.approx(
        bruteforce.dyadic_ap_scan(member_lists(sys1), list(mu), list(w), 2.0))


def test_ap_guards():
    space, mu = two_point()
    for p in (1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match=r"^exponent p must lie in \(1,"):
            ap_constant(space, mu, np.ones(2), p)
    with pytest.raises(ConfigError):
        ap_constant(space, mu, np.array([1.0, -1.0]), 2.0)
    with pytest.raises(ConfigError):
        ap_constant(space, mu, np.ones(2), 2.0, "sharp")
    with pytest.raises(ConfigError):
        ap_constant(space, mu, np.ones(2), 2.0, "dyadic")


def test_bmo_two_point_frozen():
    space, mu = two_point()
    fam = line_family(space)
    f = np.array([1.0, 0.0])
    assert bmo_norm(space, mu, f, "ball") == pytest.approx(0.5)
    assert bmo_norm(space, mu, f, "dyadic",
                    system=fam.system(1)) == pytest.approx(0.5)


def test_oscillation_centering_flag():
    """BMO centers on the signed average, so it vanishes on a negative
    constant, where centering on the average of |f| would give 10."""
    space, mu = grid64()
    f = np.full(64, -5.0)
    assert bmo_norm(space, mu, f) == 0.0


def test_bmo_shift_invariance_and_oracle():
    space, _ = grid64()
    rng = np.random.default_rng(10)
    mu = rng.uniform(0.5, 2.0, 64)
    f = rng.normal(size=64)
    base = bmo_norm(space, mu, f)
    assert base == pytest.approx(bmo_norm(space, mu, f + 17.5))
    assert base == pytest.approx(
        bruteforce.bmo_scan(dense_rows(space), list(mu), list(f)))
    assert bmo_norm(space, mu, np.full(64, 2.0)) == 0.0


# -- the ball sweep against the naive scans -----------------------------------

@st.composite
def int_clouds(draw):
    """Small integer point sets; a side-3 square gives tie-heavy grids."""
    side = draw(st.sampled_from([3, 8, 200]))
    pts = draw(st.lists(st.tuples(st.integers(0, side), st.integers(0, side)),
                        min_size=2, max_size=12, unique=True))
    return QuasiMetricSpace.from_coords(np.asarray(pts, dtype=float))


def close(got, expect):
    return np.asarray(got) == pytest.approx(expect, rel=1e-9, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(space=int_clouds(), seed=st.integers(0, 2 ** 32 - 1))
def test_ball_world_matches_scans(space, seed):
    rng = np.random.default_rng(seed)
    n, d = space.n, dense_rows(space)
    # integer masses keep every mass sum exact, so the doubling ratios match
    mu = rng.integers(1, 6, n).astype(float)
    f = rng.normal(size=n)
    w = np.exp(rng.normal(size=n))
    lm, lf, lw = list(mu), list(f), list(w)
    assert close(maximal_function(space, mu, f, "ball"),
                 bruteforce.maximal_scan(d, lm, lf))
    assert close(maximal_function(space, mu, f, "ball", weight=w),
                 bruteforce.maximal_scan(d, list(mu * w), lf))
    assert close(maximal_function(space, mu, f, "sharp"),
                 bruteforce.sharp_scan(d, lm, lf))
    assert close(maximal_function(space, mu, f, "sharp", weight=w),
                 bruteforce.sharp_scan(d, list(mu * w), lf))
    assert close(bmo_norm(space, mu, f), bruteforce.bmo_scan(d, lm, lf))
    # the kernel over a list of functions: one row per function, one sweep
    g = rng.normal(size=n) * rng.integers(0, 2, n)
    for sharp, scan in ((False, bruteforce.maximal_scan),
                        (True, bruteforce.sharp_scan)):
        rows = _ball_values(space, mu, [f, g], sharp)
        assert rows.shape == (2, n)
        for row, h in zip(rows, (f, g)):
            assert close(row, scan(d, lm, list(h)))
    for p in (1.5, 3.0):
        assert close(ap_constant(space, mu, w, p),
                     bruteforce.ap_scan(d, lm, lw, p))
    assert doubling_constant(space, mu)[0] == bruteforce.doubling_scan(d, lm)


@settings(max_examples=80, deadline=None)
@given(space=int_clouds())
def test_ball_sweep_enumerates_every_ball(space):
    d = dense_rows(space)
    top = space.profile.diam * 1.25 + 1.0
    centers = []
    for c, order, sorted_row, ends, radii in block_sweep(space):
        centers.append(c)
        row = space.dist_row(c)
        assert order.tolist() == np.argsort(row, kind="stable").tolist()
        assert sorted_row.tolist() == row[order].tolist()
        assert radii.tolist() == np.unique(row[row > 0]).tolist() + [top]
        assert ends[-1] == space.n
        for r, end in zip(radii, ends):
            assert sorted(order[:end].tolist()) == \
                bruteforce.ball_scan(d, c, float(r))
    assert centers == list(range(space.n))


def test_empty_space_sweeps_no_ball():
    space = QuasiMetricSpace.from_table(np.zeros((0, 0)))
    assert list(space.ball_blocks()) == [] and list(block_sweep(space)) == []


def test_ball_averages_refuse_row_oracle():
    table_space, mu = grid64()
    space = QuasiMetricSpace(64, block_fn=table_space.dist_rows,
                             profile=table_space.profile)
    f = np.random.default_rng(13).normal(size=64)
    for call in (lambda: maximal_function(space, mu, f, "ball"),
                 lambda: maximal_function(space, mu, f, "sharp"),
                 lambda: bmo_norm(space, mu, f),
                 lambda: ap_constant(space, mu, np.exp(f), 2.0)):
        with pytest.raises(BadSpec):
            call()
    # the doubling sweep reads rows, so it serves row oracles too
    assert doubling_constant(space, mu) == doubling_constant(table_space, mu)


# -- the blocked ball sweep against the per-center loop ------------------------

# The ball world as it was swept one center at a time, one stable argsort
# per center: the oracles the blocked kernels must equal bit for bit. They
# read no block, so they also pin block_sweep (tests/test_space.py), the
# blocks' per-center view.

def loop_sweep(space, scale=1.0):
    """block_sweep's tuples, per center; `scale` multiplies the sorted rows
    (and so the realized radii, not the one beyond the diameter)."""
    top = space.profile.diam * 1.25 + 1.0
    for c in range(space.n):
        row = space.dist_row(c)
        order = np.argsort(row, kind="stable")
        sorted_row = row[order] * scale
        starts = np.flatnonzero(sorted_row[1:] != sorted_row[:-1]) + 1
        yield (c, order, sorted_row, np.append(starts, space.n),
               np.append(sorted_row[starts], top))


def loop_ball_values(space, base, fs, sharp):
    fs = np.reshape(fs, (-1, space.n))
    out = np.zeros(fs.shape)
    columns = np.asarray([base, *(base * (fs if sharp else np.abs(fs)))])
    for _, order, _, ends, _ in loop_sweep(space):
        sums = np.cumsum(columns[:, order], axis=1)[:, ends - 1]
        vals = sums[1:] / sums[0]
        if sharp:
            beyond = np.arange(len(order)) >= ends[:, None]
            for i, f in enumerate(fs):
                dev = np.abs(f[order] - vals[i][:, None])
                dev *= base[order]
                dev[beyond] = 0.0
                vals[i] = dev.sum(axis=1) / sums[0]
        sup = np.maximum.accumulate(vals[:, ::-1], axis=1)[:, ::-1]
        out[:, order] = np.maximum(
            out[:, order], np.repeat(sup, np.diff(ends, prepend=0), axis=1))
    return out


def loop_ap(space, mu, omega, p):
    columns = np.asarray([mu, mu * omega, mu * omega ** (-1.0 / (p - 1.0))])
    out = np.zeros(1)
    for _, order, _, ends, _ in loop_sweep(space):
        m, wm, sm = np.cumsum(columns[:, order], axis=1)[:, ends - 1]
        out = np.fmax(out, (wm * sm ** (p - 1.0) / m ** p).max())
    return out.tolist()[0]


def loop_doubling(space, mu, scale=1.0):
    """doubling_constant's value, or the message it raises, with every
    radius pair compared by the pairwise scan."""
    best, per_center = 1.0, []
    for _, order, sorted_row, ends, radii in loop_sweep(space, scale):
        pre = np.cumsum(mu[order])
        m_2r = pre[np.searchsorted(sorted_row, 2.0 * radii, side="left") - 1]
        best = max(best, float((m_2r / pre[ends - 1]).max()))
        per_center.append((radii, pre[ends - 1]))
    bad = bruteforce.iterated_doubling_scan(per_center, best, math.log2(best))
    if bad:
        return (f"doubling sweep found {len(bad)} radius pairs breaking the "
                f"iterated bound, first at {bad[0]}")
    return best, math.log2(best)


def as_lists(sweep):
    return [[c, *(a.tolist() for a in arrays)] for c, *arrays in sweep]


def doubling_or_message(space, mu):
    try:
        return doubling_constant(space, mu)
    except CubeforgeError as err:
        return str(err)


@st.composite
def float_clouds(draw):
    """Small uniform clouds in the unit square: no tied distances."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return QuasiMetricSpace.from_coords(rng.uniform(size=(draw(
        st.integers(1, 14)), 2)))


def ball_cells(n, blocks):
    """BALL_CELLS for a block layout: a block a center, blocks that end
    mid-space, or one block whose sharp sub-blocks end mid-block."""
    rows = n // 2 + 1
    return {"row": n, "mid": rows * n + n // 2,
            "sharp_mid": rows * n * n + 1}[blocks]


@pytest.mark.parametrize("blocks", ["row", "mid", "sharp_mid", "default"])
@settings(max_examples=30, deadline=None)
@given(space=st.one_of(int_clouds(), float_clouds()),
       seed=st.integers(0, 2 ** 32 - 1), broken=st.booleans())
def test_blocked_ball_world_matches_the_per_center_loop(blocks, space, seed,
                                                        broken):
    n = space.n
    rng = np.random.default_rng(seed)
    fs = rng.normal(size=(3, n)) * rng.integers(0, 2, (3, n))
    mu = rng.integers(1, 6, n).astype(float)
    omega = np.exp(rng.normal(size=n))
    with pytest.MonkeyPatch.context() as mp:
        if blocks != "default":
            mp.setattr(space_module, "BALL_CELLS", ball_cells(n, blocks))
        for base in (np.ones(n), rng.uniform(0.25, 4.0, n)):
            for sharp in (False, True):
                for funcs in (fs[:1], fs):
                    got = _ball_values(space, base, funcs, sharp)
                    want = loop_ball_values(space, base, funcs, sharp)
                    assert got.tobytes() == want.tobytes()
        for p in (1.5, 3.0):
            assert ap_constant(space, mu, omega, p) == loop_ap(space, mu,
                                                                omega, p)
        # the same coordinates behind a row oracle: doubling reads its rows,
        # the ball averages refuse it
        mp.setattr(space_module, "TABLE_CAP", n - 1)
        rows = QuasiMetricSpace.from_coords(space.coords)
        assert rows.table is None
        with pytest.raises(BadSpec):
            _ball_values(rows, mu, fs, False)
        # broken: every realized radius above the one beyond the diameter
        scale = 1e6 if broken else 1.0
        if broken:
            for s in (space, rows):
                real = s.ball_blocks
                mp.setattr(s, "ball_blocks", lambda real=real: (
                    (ids, order, sorted_rows * scale, last)
                    for ids, order, sorted_rows, last in real()))
        want = loop_doubling(space, mu, scale)
        for s in (space, rows):
            assert as_lists(block_sweep(s)) == as_lists(loop_sweep(s, scale))
            assert doubling_or_message(s, mu) == want
        assert isinstance(want, str) == (broken and n > 1)


# -- the block query against the per-center loop ------------------------------

# find_containing_cubes, its _route and route_t, and the ball loops of
# verify_covering and of the containing-cube masses as they ran one center
# at a time over loop_sweep: the oracles the block query, and the checks
# reading ball_blocks through it, must equal bit for bit.

FLAGS = ("ok", "clamped_coarse", "underflow")


def loop_route_t(fam, k, beta):
    l, m = fam.labeled.duplex[k - fam.labeled.k_min][beta].tolist()
    if fam.ordinal_shifts is not None:
        alpha = int(fam.labeled.order.maps[k - fam.k_min][beta])
        n_kids = len(fam.labeled.children_of(k, alpha))
        m = (m - int(fam.ordinal_shifts[k][alpha]) - 1) % n_kids + 1
    t = pair_to_index(l, m, fam.labeled.max_children)
    if fam.level_shifts is not None:
        t = (t - int(fam.level_shifts[k]) - 1) % fam.n_systems + 1
    return t


def loop_route(fam, x, row, k, floor_k):
    if k < floor_k:
        return CubeQuery(t=1, k=fam.k_min, index=0, flag="clamped_coarse")
    if k > fam.k_max - 1:
        return CubeQuery(t=1, k=fam.k_max,
                         index=fam.system(1).locate(fam.k_max, x),
                         flag="underflow")
    beta = int(np.argmin(row[fam.labeled.hierarchy.level(k + 1)]))
    t = loop_route_t(fam, k, beta)
    alpha = int(fam.labeled.order.maps[k - fam.k_min][beta])
    if fam.distinguished is None:
        return CubeQuery(t=t, k=k, index=alpha, flag="ok")
    up = int(fam.system(t).maps[k - 1 - fam.k_min][alpha])
    return CubeQuery(t=t, k=k - 1, index=up, flag="ok")


def loop_queries(fam, x, radii):
    """One center's answers, one per radius, each radius level routed
    once; the level is the naive generation scan clipped to the window."""
    floor_k = fam.k_min + fam.coarsening - 2
    k_hi = max(fam.k_max - 1, floor_k - 1)
    levels = [min(max(bruteforce.generation_scan(fam.delta, r), floor_k - 1),
                  k_hi + 1) for r in radii.tolist()]
    row = fam.space.dist_row(x)
    answers = {k: loop_route(fam, x, row, k, floor_k) for k in set(levels)}
    return [answers[k] for k in levels]


def loop_covering(fam, scale=1.0):
    """verify_covering's ball checks as JSON: the containment witnesses,
    the diameter witnesses, the query count, the worst ratio and the
    answers per flag."""
    space, C = fam.space, fam.covering_const
    contain, diams, queries, worst = [], [], 0, 0.0
    flags = dict.fromkeys(FLAGS, 0)
    for x, _, _, _, radii in loop_sweep(space, scale):
        row = space.dist_row(x)
        for r, q in zip(radii.tolist(), loop_queries(fam, x, radii)):
            members = fam.cube_members(q)
            outside = np.ones(space.n, dtype=bool)
            outside[members] = False
            diam = float(space.dist_rows(members, members).max(initial=0.0))
            queries += 1
            flags[q.flag] += 1
            if r > row[outside].min(initial=np.inf):
                contain.append((x, r, q.to_json()))
            if diam > C * r * (1 + _TOL):
                diams.append((x, r, diam, C * r))
            worst = max(worst, diam / r)
    return json.dumps([contain, diams, queries, worst, flags])


def loop_cube_masses(fam, w, c_ap, scale=1.0):
    """_containing_cube_masses' result, from the per-center loop."""
    bad, checked, worst = [], 0, 0.0
    flags = dict.fromkeys(FLAGS, 0)
    for x, order, _, ends, radii in loop_sweep(fam.space, scale):
        pre = np.cumsum(w[order])
        for r, end, q in zip(radii.tolist(), ends,
                             loop_queries(fam, x, radii)):
            ratio = float(float(w[fam.cube_members(q)].sum()) / pre[end - 1])
            worst = max(worst, ratio)
            checked += 1
            flags[q.flag] += 1
            if ratio > c_ap * (1.0 + _REL_TOL):
                bad.append((x, r, ratio))
    return json.dumps([bad, checked, worst, flags])


def drawn_family(lab, kind, seed):
    if kind == "fixed":
        return build_adjacent_family(
            lab, distinguished=lab.hierarchy.distinguished)
    sampler = OmegaSampler(lab, kind, seed=seed)
    return sampler.realize_family(sampler.draw(0))


@settings(max_examples=60, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,), mode="strict"),
                     cloud_labels(deltas=(DELTA,), mode="strict",
                                  sides=(3,))),
       kind=st.sampled_from(["fixed", "adjacent", "adjacent_refined"]),
       rows=st.booleans(), broken=st.booleans(),
       scale=st.sampled_from([1.0, 2.0 ** -10, 2.0 ** -20, 2.0 ** -40,
                              2.0 ** 20]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_query_matches_the_per_center_loop(lab, kind, rows, broken,
                                                 scale, seed):
    # fixed families are pinned when the hierarchy is; scales 2**-10 and
    # 2**-20 move the realized radii into the window's finer levels, 2**-40
    # below it (underflow) and 2**20 above it (clamped); broken families
    # lose the last member of every cube below the top, C drops to 2, and
    # system 1's centers rotate on every level: its column points at rotated
    # rows appended to the table, so center coverage finds witnesses
    fam = drawn_family(lab, kind, seed)
    n = fam.space.n
    if kind != "fixed":
        assert fam.level_shifts is not None
        assert (fam.ordinal_shifts is not None) == (kind == "adjacent_refined")
    w = np.random.default_rng(seed).uniform(0.25, 4.0, n)
    if broken:
        corrupt(fam, slice(None, -1))
        fam.centers = [np.concatenate([z, np.roll(z[of[0]], 1)[None]])
                       for z, of in zip(fam.centers, fam.center_of)]
        fam.center_of = np.column_stack([[len(z) - 1 for z in fam.centers],
                                         fam.center_of[:, 1:]])
        fam.covering_const = 2.0
    with pytest.MonkeyPatch.context() as mp:
        if rows:   # the same coordinates behind a row oracle
            mp.setattr(space_module, "TABLE_CAP", n - 1)
            twin = QuasiMetricSpace.from_coords(fam.space.coords)
            assert twin.table is None
            mp.setattr(fam.labeled.hierarchy, "space", twin)
        space = fam.space
        if scale != 1.0:
            real = space.ball_blocks
            mp.setattr(space, "ball_blocks", lambda: (
                (ids, order, sorted_rows * scale, last)
                for ids, order, sorted_rows, last in real()))
        top = space._above_diam()
        for ids, _, sorted_rows, last in space.ball_blocks():
            radii = ball_radii(sorted_rows, top)
            qs = find_containing_cubes(fam, ids, radii)
            for i, x in enumerate(ids.tolist()):
                assert [qs.query(i, j) for j in range(n)] == \
                    loop_queries(fam, x, radii[i])
            assert_runs_match_queries(fam, qs)
        rep = verify_covering(fam)
        contain, diams = (rep.check(name) for name in ("ball_containment",
                                                       "diameter_bound"))
        assert json.dumps([contain.witnesses, diams.witnesses, contain.checked,
                           diams.details["worst_ratio"],
                           contain.details["flags"]]) == loop_covering(fam,
                                                                       scale)
        assert diams.checked == contain.checked
        if scale == 2.0 ** -40 and n > 1:
            assert contain.details["flags"]["underflow"] > 0
        for c_ap in (1.0, 1e30):
            assert json.dumps(_containing_cube_masses(fam, w, c_ap)) == \
                loop_cube_masses(fam, w, c_ap, scale)
    if fam.distinguished is None:
        want = loop_center_coverage(fam)
        got = rep.check("center_coverage")
        assert (got.witnesses, got.checked) == want
        # a witness wherever a fine point routes to system 1 below a level
        # where it holds two or more centers, so the rotation moved its own
        moved = [k for k in range(fam.k_min + 1, fam.k_max + 1)
                 if fam.system(1).level_points[k - 1 - fam.k_min].size > 1
                 and 1 in [loop_route_t(fam, k - 1, beta) for beta in range(
                     len(fam.labeled.hierarchy.level(k)))]]
        assert bool(got.witnesses) == (broken and bool(moved))


def assert_runs_match_queries(fam, qs):
    """Every entry lies in a run of its own row and query level, and the
    distinct cube of that run is the cube answering the entry (a clamped
    and an in-window answer may name one cube)."""
    which, cubes = qs.cubes(fam)
    rows, cols = qs.slot.shape
    assert qs.per_ball(qs.row).tolist() == [[i] * cols for i in range(rows)]
    assert qs.per_ball(qs.level).tolist() == qs.slot.tolist()
    run_cube = qs.per_ball(which)
    assert [[(cubes[u].t, cubes[u].k, cubes[u].index) for u in line]
            for line in run_cube.tolist()] == \
        [[(q.t, q.k, q.index) for q in map(qs.query, [i] * cols, range(cols))]
         for i in range(rows)]


def test_every_row_starts_a_run():
    # one radius for every ball of the block: each row is one run, though
    # the query level never changes across rows
    fam = cloud_family()
    n = fam.space.n
    qs = find_containing_cubes(fam, np.arange(n), np.full((n, 3), 0.05))
    assert len(qs.heads) == 1 and qs.start.tolist() == \
        list(range(0, 3 * n, 3))
    assert_runs_match_queries(fam, qs)


def loop_center_coverage(fam):
    """verify_covering's center coverage, one fine point at a time."""
    bad, checked = [], 0
    for k in range(fam.k_min + 1, fam.k_max + 1):
        level = fam.labeled.hierarchy.level(k)
        for beta in range(len(level)):
            checked += 1
            t = loop_route_t(fam, k - 1, beta)
            alpha = int(fam.labeled.order.maps[k - 1 - fam.k_min][beta])
            center = fam.system(t).cube(k - 1, alpha).center
            if center != int(level[beta]):
                bad.append((k, beta, t, alpha, center))
    return bad, checked


@pytest.mark.parametrize("per_block", [5, None])
def test_each_check_queries_once_per_block(monkeypatch, per_block):
    # one ball_blocks sweep per check and one block query per block: 48
    # centers in blocks of 5 make 10 blocks, the default budget 1
    fam = cloud_family(box=20.0)
    space, mu = fam.space, np.ones(fam.space.n)
    if per_block is not None:
        monkeypatch.setattr(space_module, "BALL_CELLS", per_block * space.n)
    n_blocks = 10 if per_block else 1
    constants = _instance_constants(fam, mu)
    calls = []
    real_blocks = space.ball_blocks
    monkeypatch.setattr(space, "ball_blocks",
                        lambda: (calls.append("blocks"), real_blocks())[1])

    def query(*args):
        calls.append("query")
        return find_containing_cubes(*args)

    for module in (adjacent, analysis):
        monkeypatch.setattr(module, "find_containing_cubes", query)
    assert verify_covering(fam).passed
    assert calls == ["blocks"] + ["query"] * n_blocks
    calls.clear()
    _containing_cube_masses(fam, mu, constants["C_a_prime"])
    assert calls == ["blocks"] + ["query"] * n_blocks


def test_covering_counts_the_answers_per_flag():
    # the geoline's widest balls clamp to the top cube; the covering check
    # and the containing-cube masses count the same answers
    fam = geoline_family()
    mu = np.ones(fam.space.n)
    chk = verify_covering(fam).check("ball_containment")
    flags = chk.details["flags"]
    assert sum(flags.values()) == chk.checked and flags["clamped_coarse"] > 0
    masses = verify_comparability(fam, mu, []).check(
        "ball_containing_cube_mass")
    assert masses.details["flags"] == flags


def test_ball_values_memory_at_700_points():
    # the plain sweep holds a few BALL_CELLS-sized blocks; the sharp one adds
    # a few (1, n, n) sub-blocks, where the per-center loop held (balls, n)
    # blocks and peaked at 12.3 MB on this input
    space = generate_space({"kind": "euclidean_cloud", "n": 700, "dim": 2,
                            "box": 1.0, "seed": 0})
    f = np.random.default_rng(0).normal(size=700)
    for sharp, limit_mb in ((False, 4.0), (True, 12.3 + 4.0)):
        tracemalloc.start()
        try:
            _ball_values(space, np.ones(700), [f], sharp)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
        assert peak_mb < limit_mb


# -- the cube sweep against the naive scans -----------------------------------

@settings(max_examples=40, deadline=None)
@given(lab=st.one_of(cloud_labels(deltas=(DELTA,), mode="strict"),
                     cloud_labels(deltas=(DELTA,), mode="strict",
                                  sides=(3,))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dyadic_world_matches_scans(lab, seed):
    # every system of a family whose systems share level arrays
    fam = build_adjacent_family(lab, distinguished=lab.hierarchy.distinguished)
    space, n = fam.space, fam.space.n
    rng = np.random.default_rng(seed)
    mu = rng.integers(1, 6, n).astype(float)
    f = rng.normal(size=n)
    w = np.exp(rng.normal(size=n))
    lm, lf, lw = list(mu), list(f), list(w)
    # the family sweep: one row per system, each distinct level summed once
    levels, K = fam.held_pieces(), fam.n_systems
    rows = zip(_dyadic_values(levels, K, mu, [f], False)[0],
               _dyadic_values(levels, K, mu * w, [f], False)[0],
               _dyadic_values(levels, K, mu, [f], True)[0])
    for sys_t, (row, row_w, row_sharp) in zip(fam.systems, rows):
        lists = member_lists(sys_t)
        plain = bruteforce.dyadic_maximal_scan(lists, lm, lf)
        weighted = bruteforce.dyadic_maximal_scan(lists, list(mu * w), lf)
        sharp = bruteforce.dyadic_sharp_scan(lists, lm, lf)
        assert close(row, plain)
        assert close(row_w, weighted)
        assert close(row_sharp, sharp)
        assert close(maximal_function(space, mu, f, "dyadic", system=sys_t),
                     plain)
        assert close(maximal_function(space, mu, f, "dyadic", weight=w,
                                      system=sys_t), weighted)
        assert close(maximal_function(space, mu, f, "dyadic_sharp",
                                      system=sys_t), sharp)
        assert close(bmo_norm(space, mu, f, "dyadic", system=sys_t),
                     max(sharp))
        for p in (1.5, 3.0):
            assert close(ap_constant(space, mu, w, p, "dyadic", system=sys_t),
                         bruteforce.dyadic_ap_scan(lists, lm, lw, p))
    assert close(bmo_norm(space, mu, f),
                 bruteforce.bmo_scan(dense_rows(space), lm, lf))


def sweep_masses(space, mu):
    """Per center, its realized radii and ball masses, and the largest
    doubling ratio m(2r)/m(r) over them (at least 1)."""
    per_center, best = [], 1.0
    for _, order, sorted_row, ends, radii in block_sweep(space):
        pre = np.cumsum(mu[order])
        m_2r = pre[np.searchsorted(sorted_row, 2.0 * radii, side="left") - 1]
        best = max(best, float((m_2r / pre[ends - 1]).max()))
        per_center.append((radii, pre[ends - 1]))
    return per_center, best


def one_row_blocks(per_center):
    """per_center's (radii, masses) as _iterated_violations' blocks: one
    center x a block, every rank a ball."""
    return [(np.array([x]), radii[None], masses[None],
             np.ones((1, radii.size), dtype=bool))
            for x, (radii, masses) in enumerate(per_center)]


@settings(max_examples=40, deadline=None)
@given(space=int_clouds(), seed=st.integers(0, 2 ** 32 - 1),
       shrink=st.sampled_from([1.0, 0.9, 0.5, 0.0]))
def test_iterated_doubling_check_matches_pairwise_scan(space, seed, shrink):
    # shrink < 1 lowers the asserted constant, so pairs break the bound
    mu = np.random.default_rng(seed).uniform(0.5, 4.0, space.n)
    per_center, best = sweep_masses(space, mu)
    c = best ** shrink
    for c_exp in (math.log2(best), math.log2(c)):
        assert _iterated_violations(one_row_blocks(per_center), c, c_exp) \
            == bruteforce.iterated_doubling_scan(per_center, c, c_exp)


@pytest.mark.parametrize("seed", range(6))
def test_iterated_doubling_check_at_the_tolerance_boundary(seed):
    # every pair (r_0, R) has m(R)/m(r_0) a few ulps from
    # best * (R/r_0)**c * (1 + tol), so only exact rounding decides it
    rng = np.random.default_rng(seed)
    per_center, flagged = [], 0
    for _ in range(40):
        radii = np.sort(rng.choice(np.geomspace(1e-3, 1e3, 500), 6,
                                   replace=False))
        best = float(rng.choice([1.0, 2.0, 3.0, 17.5, 1e6]))
        c_exp = math.log2(best)
        m_r = best * (radii / radii[0]) ** c_exp * (1.0 + 1e-9)
        m_r[0] = 1.0
        for j in range(1, 6):
            for _ in range(rng.integers(0, 3)):
                m_r[j] = np.nextafter(m_r[j], rng.choice([0.0, np.inf]))
        per_center.append((radii, m_r))
        want = bruteforce.iterated_doubling_scan(per_center[-1:], best, c_exp)
        assert _iterated_violations(one_row_blocks(per_center[-1:]), best,
                                    c_exp) == want
        flagged += bool(want)
    assert 0 < flagged < 40


def test_doubling_raises_on_a_broken_enumeration(monkeypatch):
    # a sweep whose sorted rows are scaled up puts every realized radius
    # above the one beyond the diameter, yet the balls still grow up to it,
    # so the iterated bound breaks; the error names the pairwise scan's
    # count and first witness
    space, mu = grid64()
    real = space.ball_blocks

    def broken():
        for ids, order, sorted_rows, last in real():
            yield ids, order, sorted_rows * 1e6, last

    monkeypatch.setattr(space, "ball_blocks", broken)
    per_center, best = sweep_masses(space, mu)
    bad = bruteforce.iterated_doubling_scan(per_center, best, math.log2(best))
    assert bad
    with pytest.raises(CubeforgeError) as err:
        doubling_constant(space, mu)
    assert str(err.value) == (
        f"doubling sweep found {len(bad)} radius pairs breaking the "
        f"iterated bound, first at {bad[0]}")


# -- transfer checks ----------------------------------------------------------

def test_comparability_on_grid_family():
    space, mu = grid64()
    fam = line_family(space)
    rng = np.random.default_rng(11)
    fs = [rng.normal(size=64) for _ in range(3)] + [np.ones(64)]
    rep = verify_comparability(fam, mu, fs)
    assert rep.passed, rep.to_json()
    a = rep.check("cube_outer_ball_mass")
    assert a.details["empirical"] <= a.details["C_a"]
    b = rep.check("ball_containing_cube_mass")
    assert b.details["empirical"] <= b.details["C_a_prime"]
    assert sum(b.details["flags"].values()) == b.checked
    for name in ("dyadic_le_ball", "ball_le_dyadic_sum",
                 "sharp_dyadic_le_ball", "sharp_ball_le_dyadic_sum"):
        c = rep.check(name)
        assert c.details["empirical"] <= c.details["constant"]


def test_comparability_witnesses_name_function_and_system():
    # with constants far below every ratio each bound fails everywhere, so
    # the witnesses list every (function, system t from 1) or function, in
    # that order, with the ratio of one maximal_function call per system
    space, mu = grid64()
    fam = line_family(space)
    rng = np.random.default_rng(7)
    fs = [rng.normal(size=64) for _ in range(2)]
    info = dict(_instance_constants(fam, mu), C_a=1e-6, C_a_prime=1e-6)
    rep = verify_comparability(fam, mu, fs, constants=info)
    for prefix, ball, dyadic in (("", "ball", "dyadic"),
                                 ("sharp_", "sharp", "dyadic_sharp")):
        per_t, per_sum = [], []
        for fi, f in enumerate(fs):
            mb = maximal_function(space, mu, f, ball)
            md = [maximal_function(space, mu, f, dyadic, system=s)
                  for s in fam.systems]
            per_t += [(fi, t, float((row / mb).max()))
                      for t, row in enumerate(md, start=1)]
            per_sum.append((fi, float((mb / sum(md)).max())))
        for name, want in (("dyadic_le_ball", per_t),
                           ("ball_le_dyadic_sum", per_sum)):
            c = rep.check(prefix + name)
            assert c.witnesses == want
            assert c.checked == len(want) * space.n
            assert c.details["empirical"] == max(w[-1] for w in want)


@pytest.mark.parametrize("n_funcs", [1, 3])
def test_comparability_sums_each_distinct_level_once(monkeypatch, n_funcs):
    # the K systems of a box-20 cloud family share most levels; for F sample
    # functions, each distinct assign content takes F + 1 bincounts in the
    # plain pass (mass, each |f|) and 2F + 1 in the sharp pass (mass, each
    # f, each |f - f_Q|)
    fam = cloud_family(box=20.0)
    mu = np.ones(fam.space.n)
    rng = np.random.default_rng(3)
    fs = [rng.normal(size=fam.space.n) for _ in range(n_funcs)]
    constants = _instance_constants(fam, mu)
    distinct = {a.tobytes() for sys_t in fam.systems for a in sys_t.assign}
    assert len(distinct) < sum(len(sys_t.assign) for sys_t in fam.systems)
    real, calls = np.bincount, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    assert verify_comparability(fam, mu, fs, constants=constants).passed
    assert len(calls) == (3 * n_funcs + 2) * len(distinct)


def test_comparability_sweeps_the_ball_world_three_times(monkeypatch):
    # one sweep for the containing-cube masses, one plain and one sharp
    # ball sweep for every sample function at once
    fam = cloud_family(box=20.0)
    space, mu = fam.space, np.ones(fam.space.n)
    rng = np.random.default_rng(5)
    fs = [rng.normal(size=space.n) for _ in range(3)]
    constants = _instance_constants(fam, mu)
    real, calls = space.ball_blocks, []

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(space, "ball_blocks", counting)
    assert verify_comparability(fam, mu, fs, constants=constants).passed
    assert len(calls) == 3


def test_max_ratio_reduces_each_row():
    lhs = np.array([[1.0, 2.0, 0.0], [1.0, 3.0, 1e-13]])
    rhs = np.array([[1.0, 0.0, 4.0], [2.0, 1.0, 0.0]])
    assert _max_ratio(lhs, rhs).tolist() == [math.inf, 3.0]
    # rhs broadcasts; a row with no positive rhs and no mass reads 0
    assert _max_ratio(lhs, np.array([0.5, 1.0, 2.0])).tolist() == [2.0, 3.0]
    assert _max_ratio(np.zeros((2, 2)), np.zeros(2)).tolist() == [0.0, 0.0]


def test_weighted_bounds_sum_each_distinct_level_once(monkeypatch):
    # per distinct assign content: 2 bincounts for the weighted maximal, 2
    # for the plain one, 3 for the sharp one and 3 for A_p (mass, omega
    # mass, sigma mass), where A_p used to take 3 per (system, level); each
    # system still gets the A_p of its own levels (two values here)
    fam = cloud_family(box=20.0)
    rng = np.random.default_rng(4)
    mu = np.ones(fam.space.n)
    omega = rng.uniform(0.5, 2.0, fam.space.n)
    f = rng.normal(size=fam.space.n)
    constants = _instance_constants(fam, mu)
    distinct = {a.tobytes() for sys_t in fam.systems for a in sys_t.assign}
    real, calls = np.bincount, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    rep = verify_weighted_bounds(fam, mu, omega, f, 2.0, constants=constants)
    assert rep.passed
    assert len(calls) == 10 * len(distinct)
    per_system = rep.check("ap_controlled_norm").details["per_system"]
    a_p = [entry["A_p"] for entry in per_system]
    assert a_p == [ap_constant(fam.space, mu, omega, 2.0, "dyadic", system=s)
                   for s in fam.systems]
    assert len(set(a_p)) > 1


def drop_first_members(fam):
    """Every cube of two or more points loses its first member."""
    return repiece(fam, np.ndindex(fam.piece_of.shape),
                   lambda lists: [m[1:] if m.size > 1 else m for m in lists])


@pytest.mark.parametrize("corrupted", [False, True])
def test_cube_mass_witnesses_match_scan(corrupted):
    # integer masses keep every sum exact, and C_a = 1 makes every cube
    # whose outer ball holds more than its members a witness; corrupted,
    # cubes of two or more points lose their first member
    space, _ = grid64()
    fam = line_family(space)
    if corrupted:
        drop_first_members(fam)
    mu = np.random.default_rng(16).integers(1, 6, 64).astype(float)
    constants = {**_instance_constants(fam, mu), "C_a": 1.0}
    d = dense_rows(space)
    outer = fam.system(1).constants.outer_const
    expect, worst, checked = [], 0.0, 0
    for t in range(1, fam.n_systems + 1):
        sys_t = fam.system(t)
        for k in sys_t.level_ks():
            r = outer * fam.delta ** k
            for i, cube in enumerate(sys_t.cubes_at(k)):
                ball = sum(mu[y] for y in bruteforce.ball_scan(d, cube.center, r))
                ratio = ball / sum(mu[y] for y in cube.members.tolist())
                worst = max(worst, ratio)
                checked += 1
                if ratio > 1.0 + 1e-9:
                    expect.append((t, k, i, ratio))
    chk = verify_comparability(fam, mu, [], constants=constants).check(
        "cube_outer_ball_mass")
    assert expect and chk.checked == checked
    assert chk.witnesses == expect
    assert chk.details["empirical"] == worst


def test_cube_mass_ratios_match_scan_for_real_masses():
    # non-integer masses: the outer masses (one product of the near rows
    # with the masses) and the cube masses (one reduceat) sum in another
    # order than the scan's, so ratios agree to rel 1e-12; C_a = 1 makes
    # every cube whose outer ball holds more than its members a witness
    space, _ = grid64()
    fam = line_family(space)
    mu = np.random.default_rng(17).uniform(0.5, 2.0, 64)
    constants = {**_instance_constants(fam, mu), "C_a": 1.0}
    d = dense_rows(space)
    outer = fam.system(1).constants.outer_const
    expect, checked = [], 0
    for t in range(1, fam.n_systems + 1):
        sys_t = fam.system(t)
        for k in sys_t.level_ks():
            r = outer * fam.delta ** k
            for i, cube in enumerate(sys_t.cubes_at(k)):
                ball = sum(mu[y] for y in bruteforce.ball_scan(d, cube.center, r))
                expect.append((t, k, i,
                               ball / sum(mu[y] for y in cube.members.tolist())))
                checked += 1
    chk = verify_comparability(fam, mu, [], constants=constants).check(
        "cube_outer_ball_mass")
    bad = [w for w in expect if w[3] > 1.0 + _REL_TOL]
    assert bad and chk.checked == checked
    assert [w[:3] for w in chk.witnesses] == [w[:3] for w in bad]
    assert [w[3] for w in chk.witnesses] == pytest.approx(
        [w[3] for w in bad], rel=1e-12)
    assert chk.details["empirical"] == pytest.approx(
        max(w[3] for w in expect), rel=1e-12)


def test_ball_mass_check_matches_scan():
    space, _ = grid64()
    fam = line_family(space)
    mu = np.random.default_rng(14).uniform(0.5, 2.0, 64)
    d = dense_rows(space)
    top = space.profile.diam * 1.25 + 1.0
    queries, worst = 0, 0.0
    for x in range(64):
        for r in sorted({d[x][y] for y in range(64)} - {0.0}) + [top]:
            queries += 1
            cube = fam.cube_members(find_containing_cube(fam, x, r))
            ball_mass = sum(mu[y] for y in bruteforce.ball_scan(d, x, r))
            worst = max(worst, float(mu[cube].sum()) / ball_mass)
    chk = verify_comparability(fam, mu, []).check("ball_containing_cube_mass")
    assert chk.checked == queries
    assert chk.details["empirical"] == pytest.approx(worst, rel=1e-12)


def test_ball_mass_witnesses_match_scan_on_corrupted_family():
    # every cube of two or more points loses its first member; assign stays
    # as built, so the check must read the member lists. Integer masses keep
    # every sum exact, and a small C_a_prime makes many balls witnesses
    space, _ = grid64()
    fam = drop_first_members(line_family(space))
    mu = np.random.default_rng(15).integers(1, 6, 64).astype(float)
    constants = {**_instance_constants(fam, mu), "C_a_prime": 1.25}
    d = dense_rows(space)
    top = space.profile.diam * 1.25 + 1.0
    expect = []
    for x in range(64):
        for r in sorted({d[x][y] for y in range(64)} - {0.0}) + [top]:
            cube = fam.cube_members(find_containing_cube(fam, x, r))
            ball_mass = sum(mu[y] for y in bruteforce.ball_scan(d, x, r))
            ratio = float(mu[cube].sum()) / ball_mass
            if ratio > 1.25 * (1.0 + 1e-9):
                expect.append((x, r, ratio))
    chk = verify_comparability(fam, mu, [], constants=constants).check(
        "ball_containing_cube_mass")
    assert expect and not chk.passed
    assert chk.witnesses == expect


def test_comparability_refuses_an_empty_cube():
    # system 1 loses cube 40 of level 1 to cube 41, in a piece of its own:
    # the outer-ball ratio of the empty cube used to divide by its zero mass
    # (ZeroDivisionError)
    space, mu = grid64()
    fam = line_family(space)
    j = 1 - fam.k_min
    assign, (flat, start) = fam.pieces[fam.piece_of[j, 0]]
    lists = [flat[a:b].tolist() for a, b in zip(start, start[1:])]
    lists[41], lists[40] = lists[40] + lists[41], []
    fam.pieces.append((np.where(assign == 40, 41, assign), grouped(lists)))
    fam.piece_of[j, 0] = len(fam.pieces) - 1
    for call in (lambda: verify_comparability(fam, mu, [np.ones(64)]),
                 lambda: verify_weighted_bounds(fam, mu, np.ones(64),
                                                np.ones(64), 2.0)):
        with pytest.raises(PreconditionFail,
                           match="level 1: cube 40 holds no point"):
            call()


def test_comparability_requires_strict_mode():
    space, mu = grid64()
    fam = line_family(space, mode="exploratory")
    with pytest.raises(PreconditionFail):
        verify_comparability(fam, mu, [np.ones(64)])


def test_weighted_bounds_two_point_micro():
    space, mu = two_point()
    fam = line_family(space)
    f = np.array([1.0, 0.0])
    rep = verify_weighted_bounds(fam, mu, np.ones(2), f, 2.0)
    assert rep.passed, rep.to_json()
    rows = rep.check("weighted_dyadic_norm").details["per_system"]
    assert rows[0]["norm"] == pytest.approx(np.sqrt(5.0 / 8.0))
    assert rows[0]["bound"] == pytest.approx(2.0 * np.sqrt(0.5))
    assert lp_norm(f, mu, np.ones(2), 2.0) == pytest.approx(np.sqrt(0.5))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_weighted_bounds_on_grid(p):
    space, mu = grid64()
    fam = line_family(space)
    rng = np.random.default_rng(int(p * 10))
    w = np.exp(rng.normal(size=64))
    f = rng.normal(size=64)
    rep = verify_weighted_bounds(fam, mu, w, f, p)
    assert rep.passed, rep.to_json()


def test_weighted_bounds_guards():
    space, mu = two_point()
    fam = line_family(space)
    for p in (1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match=r"^exponent p must lie in \(1,"):
            verify_weighted_bounds(fam, mu, np.ones(2), np.ones(2), p)
    with pytest.raises(ConfigError):
        verify_weighted_bounds(fam, mu, np.array([1.0, 0.0]), np.ones(2), 2.0)
