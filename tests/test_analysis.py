"""Measures, maximal operators, weight constants, and the transfer checks."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from cubeforge.adjacent import build_adjacent_family, find_containing_cube
from cubeforge.analysis import (Measure, ap_constant, bmo_norm,
                                doubling_constant, lp_norm, maximal_function,
                                verify_comparability, verify_weighted_bounds)
from cubeforge.cubes import build_cube_system, build_partial_order
from cubeforge.errors import BadSpec, ConfigError, PreconditionFail
from cubeforge.labeling import build_labels
from cubeforge.nets import build_reference_hierarchy
from cubeforge.space import QuasiMetricSpace

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
    m = Measure([1.0, 2.0, 3.0])
    assert m.n == 3
    assert m.total == 6.0
    assert m.mass([0, 2]) == 4.0
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
    with pytest.raises(ConfigError):
        ap_constant(space, mu, np.ones(2), 1.0)
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
    """Signed centering (the default) kills constants; centering on the
    average of |f| does not, which is why signed is the default. The two
    agree whenever f is nonnegative."""
    space, mu = grid64()
    f = np.full(64, -5.0)
    assert bmo_norm(space, mu, f) == 0.0
    assert bmo_norm(space, mu, f, absolute_mean=True) == pytest.approx(10.0)
    g = np.abs(np.random.default_rng(12).normal(size=64))
    assert bmo_norm(space, mu, g) == pytest.approx(
        bmo_norm(space, mu, g, absolute_mean=True))
    assert maximal_function(space, mu, g, "sharp") == pytest.approx(
        maximal_function(space, mu, g, "sharp", absolute_mean=True))


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
    assert close(maximal_function(space, mu, f, "sharp", absolute_mean=True),
                 bruteforce.sharp_scan(d, lm, lf, absolute_mean=True))
    assert close(bmo_norm(space, mu, f), bruteforce.bmo_scan(d, lm, lf))
    assert close(bmo_norm(space, mu, f, absolute_mean=True),
                 bruteforce.bmo_scan(d, lm, lf, absolute_mean=True))
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
    for c, order, sorted_row, ends, radii in space.ball_sweep():
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
    assert [c for c, *_ in space.ball_sweep([1, 0])] == [1, 0]


def test_ball_averages_refuse_row_oracle():
    table_space, mu = grid64()
    space = QuasiMetricSpace(64, row_fn=table_space.dist_row,
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


# -- transfer checks ----------------------------------------------------------

def test_comparability_on_grid_family():
    space, mu = grid64()
    fam = line_family(space)
    rng = np.random.default_rng(11)
    fs = [rng.normal(size=64) for _ in range(3)] + [np.ones(64)]
    rep = verify_comparability(fam, mu, fs)
    assert rep.passed, rep.summary()
    a = rep.check("cube_outer_ball_mass")
    assert a.details["empirical"] <= a.details["C_a"]
    b = rep.check("ball_containing_cube_mass")
    assert b.details["empirical"] <= b.details["C_a_prime"]
    assert sum(b.details["flags"].values()) == b.checked
    for name in ("dyadic_le_ball", "ball_le_dyadic_sum",
                 "sharp_dyadic_le_ball", "sharp_ball_le_dyadic_sum"):
        c = rep.check(name)
        assert c.details["empirical"] <= c.details["constant"]


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
    assert rep.passed, rep.summary()
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
    assert rep.passed, rep.summary()


def test_weighted_bounds_guards():
    space, mu = two_point()
    fam = line_family(space)
    with pytest.raises(ConfigError):
        verify_weighted_bounds(fam, mu, np.ones(2), np.ones(2), 1.0)
    with pytest.raises(ConfigError):
        verify_weighted_bounds(fam, mu, np.array([1.0, 0.0]), np.ones(2), 2.0)
