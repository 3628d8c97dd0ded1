"""The acceptance gate: eleven end-to-end checks, one pass/fail line each.

Each check is either an exhaustive structural verification with zero
tolerance for violations, or a Monte Carlo bound whose slack is written out
next to the sampling plan. The tolerances and seeds are frozen here on
purpose: when one of these lines flips to FAIL, the library regressed, not
the test. Run with -s to see the verdict lines as they happen.
"""
import math
import time
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

import bruteforce
from cubeforge.adjacent import build_adjacent_family, verify_covering
from cubeforge.analysis import (ap_constant, bmo_norm, doubling_constant,
                                lp_norm, maximal_function,
                                verify_comparability)
from cubeforge.cubes import (build_cube_system, build_partial_order,
                             tight_flags, verify_cube_axioms)
from cubeforge.labeling import (build_labels, select_points,
                                verify_new_point_axioms)
from cubeforge.nets import build_reference_hierarchy
from cubeforge.random_systems import (OmegaSampler,
                                      estimate_boundary_sweep,
                                      estimate_selection_probability,
                                      realize_system, sample_outcome,
                                      scan_chain_separation)
from cubeforge.space import QuasiMetricSpace, ball, generate_space
from test_selection import near_pool

DELTA = 1.0 / 144.0
REL_TOL = 1e-9


def _verdict(num, ok, label, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def labels_for(space, distinguished=None):
    hier = build_reference_hierarchy(space, DELTA, mode="strict",
                                     distinguished=distinguished)
    return build_labels(hier)


def geoline():
    return generate_space({"kind": "geometric_line", "levels": 3,
                           "delta": DELTA})


def cloud(seed):
    return generate_space({"kind": "euclidean_cloud", "n": 200, "seed": seed})


@lru_cache(maxsize=None)
def cloud_family():
    return build_adjacent_family(labels_for(cloud(0)))


@lru_cache(maxsize=None)
def grid64_family():
    return build_adjacent_family(
        labels_for(QuasiMetricSpace.from_line(np.arange(64.0))))


@lru_cache(maxsize=None)
def two_label_labels():
    # level -1 net is {0, 150}; under the single draw the second parent's
    # children split 1/4 vs 3/4, so the marginals genuinely branch
    return labels_for(QuasiMetricSpace.from_line([0.0, 75.0, 79.0, 150.0]))


@lru_cache(maxsize=None)
def straddle_labels():
    # same nine-point geometry as the fixture in test_random.py, kept
    # standalone: sampled systems of this space admit depth-1 boundary
    # chains, so the chain scan below has real pairs to check
    pts = np.array([
        [-0.99, 0.0], [1.247, 0.0], [0.13, 0.49],
        [0.0, 0.0], [0.257, 0.0],
        [0.124, 0.0], [0.14095, 0.0],
        [0.13785, 0.0], [0.13795, 0.0],
    ])
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    space = QuasiMetricSpace.from_table(d, declared_tri_const=1.0)
    return labels_for(space)


@pytest.mark.slow
def test_criterion_1_cube_axioms_exact_on_line_and_clouds():
    t0 = time.perf_counter()
    fams = [build_adjacent_family(labels_for(geoline()))]
    fams += [build_adjacent_family(labels_for(cloud(seed)))
             for seed in range(20)]
    built = time.perf_counter() - t0
    bad = []
    n_systems = 0
    for i, fam in enumerate(fams):
        tri = fam.space.profile.tri_const
        consts = fam.system(1).constants
        # realized systems carry the auxiliary constants, so the sandwich
        # radii are c0/(3 tri^2) inward and 2 tri * C0 outward
        assert consts.sep_const == pytest.approx(1.0 / (4.0 * tri ** 2))
        assert consts.cover_const == pytest.approx(2.0 * tri)
        n_systems += fam.n_systems
        bad += [(i, t) for t, rep in enumerate(
            verify_cube_axioms(fam.systems), start=1) if not rep.passed]
    elapsed = time.perf_counter() - t0
    _verdict(1, not bad and elapsed < 60.0,
             "nesting, partition, and ball sandwich hold exhaustively",
             f"{n_systems} systems across 21 spaces, {elapsed:.1f}s: "
             f"build {built:.1f}s, verify {elapsed - built:.1f}s")


def test_criterion_2_every_selection_rule_respects_point_axioms():
    reports = []
    for lab in (labels_for(geoline()), two_label_labels()):
        L, M = lab.max_label, lab.max_children
        rng = np.random.default_rng(2026)
        for _ in range(5):
            master = {int(k): int(rng.integers(0, L + 1))
                      for k in lab.parent_ks()}
            out = select_points(
                lab, {"kind": "general", "master": master},
                chooser=lambda k, a: int(rng.choice(lab.children_of(k, a))))
            reports.append(verify_new_point_axioms(out))
        for l in range(L + 1):
            for m in range(1, M + 1):
                out = select_points(lab, {"kind": "specific",
                                          "label": [l, m]})
                reports.append(verify_new_point_axioms(out))
    labd = labels_for(geoline(), distinguished=0)
    for l in range(labd.max_label + 1):
        for m in range(1, labd.max_children + 1):
            out = select_points(labd, {"kind": "specific_distinguished",
                                       "label": [l, m], "distinguished": 0})
            reports.append(verify_new_point_axioms(out))
    n_checked = sum(c.checked for rep in reports for c in rep.checks)
    _verdict(2, all(rep.passed for rep in reports),
             "all three selection rules keep separation and covering",
             f"{len(reports)} outcomes, {n_checked} point checks")


def test_criterion_3_every_ball_fits_in_one_cube():
    fams = [build_adjacent_family(labels_for(geoline())),
            build_adjacent_family(two_label_labels()),
            cloud_family()]
    famd = build_adjacent_family(labels_for(geoline(), distinguished=0),
                                 distinguished=0)
    # the plain family answers within 8 tri^3 / delta^2 of the radius; the
    # pinned one goes a generation coarser and pays another 1/delta
    assert fams[0].covering_const == pytest.approx(8.0 / DELTA ** 2)
    assert famd.covering_const == pytest.approx(8.0 / DELTA ** 3)
    reports = [verify_covering(f) for f in fams + [famd]]
    n_queries = sum(rep.check("ball_containment").checked for rep in reports)
    _verdict(3, all(rep.passed for rep in reports),
             "each realized ball lies in a cube of comparable diameter",
             f"{n_queries} ball queries over 4 families")


def test_criterion_4_every_reference_point_becomes_a_center():
    fams = [build_adjacent_family(labels_for(geoline())),
            build_adjacent_family(two_label_labels()),
            build_adjacent_family(straddle_labels()),
            cloud_family()]
    checks = [verify_covering(f).check("center_coverage") for f in fams]
    n_points = sum(c.checked for c in checks)
    _verdict(4, all(c.passed for c in checks),
             "each fine reference point is some system's chosen center",
             f"{n_points} reference points over 4 families")


def test_criterion_5_chain_separation_on_sampled_systems():
    summary = {}
    ok = True
    for name, lab, seed in (("grid300", None, 6),
                            ("straddle", straddle_labels(), 0)):
        if lab is None:
            grid = QuasiMetricSpace.from_line(np.arange(300.0))
            lab = build_labels(build_reference_hierarchy(grid, DELTA,
                                                         mode="strict"))
        sampler = OmegaSampler(lab, "single", seed=seed)
        combos = 0
        depths = {}
        for i in range(100):
            rep = scan_chain_separation(
                realize_system(lab, sample_outcome(sampler, i)))
            ok = ok and rep.passed
            det = rep.check("admissible_chains").details
            combos += det["combinations"]
            for depth, count in det["per_depth"].items():
                depths[depth] = depths.get(depth, 0) + count
        summary[name] = (combos, depths)
    # the sweep must not have been vacuous: the grid exposes many depth-0
    # boundary points and the straddle geometry reaches depth 1
    assert summary["grid300"][0] > 0
    assert summary["straddle"][1].get(1, 0) > 0
    _verdict(5, ok, "sampled boundary chains keep their separation",
             f"200 systems, {summary['grid300'][0]} grid combos, "
             f"straddle depths {summary['straddle'][1]}")


@pytest.mark.slow
def test_criterion_6_boundary_probability_decay():
    t0 = time.perf_counter()
    lab = labels_for(geoline())
    sampler = OmegaSampler(lab, "single", seed=2026)
    estimates = []
    for k in (lab.k_min, 0):
        estimates += estimate_boundary_sweep(
            sampler, range(lab.space.n), k, (0.1, 0.01, 0.001), 10000)
    elapsed = time.perf_counter() - t0
    worst = max(e.wilson_upper / e.bound for e in estimates)
    _verdict(6, all(e.passed for e in estimates) and elapsed < 600.0,
             "Wilson upper bounds stay under the decay envelope",
             f"{len(estimates)} sweeps of N=10000, worst ratio "
             f"{worst:.2e}, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_selection_marginals():
    lab = two_label_labels()
    # (a) every parent-child pair at the branching level clears tau_0 - 3s
    single = OmegaSampler(lab, "single", seed=97)
    ests = []
    for alpha in range(len(lab.hierarchy.level(-1))):
        for beta in lab.children_of(-1, alpha):
            ests.append(estimate_selection_probability(
                single, -1, alpha, int(beta), 10000))
    ok_floor = all(e.passed for e in ests)

    # (b) adjacent-variant marginals sit within 3 sigma of exactly 1/K
    ok_adjacent = True
    devs = []
    gl = labels_for(geoline())
    ga = OmegaSampler(gl, "adjacent", seed=5)
    pairs = [(ga, gl.k_min, 0, int(beta))
             for beta in gl.children_of(gl.k_min, 0)]
    ta = OmegaSampler(lab, "adjacent", seed=8)
    pairs.append((ta, -1, 1, 2))
    for sampler, k, alpha, beta in pairs:
        est = estimate_selection_probability(sampler, k, alpha, beta,
                                             10000, t=1)
        p_k = 1.0 / sampler.n_systems
        sigma = math.sqrt(p_k * (1.0 - p_k) / 10000)
        devs.append(abs(est.frequency - p_k) / sigma)
        ok_adjacent = ok_adjacent and devs[-1] <= 3.0

    # (c) chi-square of each parent's child distribution against the
    # exactly enumerated branch probabilities, 99% confidence
    probe = OmegaSampler(lab, "single", seed=301)
    n = 10000
    counts = [dict(), dict()]
    for i in range(n):
        choice = probe.draw_level(i, -1)["choice"]
        for alpha in (0, 1):
            c = int(choice[alpha])
            counts[alpha][c] = counts[alpha].get(c, 0) + 1
    ok_chi2 = True
    chi2_stats = []
    for alpha in (0, 1):
        exact = bruteforce.single_draw_marginals(
            lab.children_of(-1, alpha).tolist(),
            near_pool(lab, -1, alpha),
            lab.primary[-1 - lab.k_min][alpha], lab.max_label + 1)
        stat = sum((counts[alpha].get(c, 0) - n * p) ** 2 / (n * p)
                   for c, p in exact.items())
        chi2_stats.append(stat)
        ok_chi2 = ok_chi2 and stat < stats.chi2.ppf(0.99, df=len(exact) - 1)

    _verdict(7, ok_floor and ok_adjacent and ok_chi2,
             "selection marginals match the drawn distribution",
             f"min freq {min(e.frequency for e in ests):.3f} vs tau_0 "
             f"{single.tau_0}, adj dev <= {max(devs):.2f} sigma, "
             f"chi2 {max(chi2_stats):.2f}")


def test_criterion_8_weighted_dyadic_bound_uniform_in_weight():
    fam = grid64_family()
    space = fam.space
    mu = np.ones(64)
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(200):
        p = float(rng.uniform(1.05, 4.0))
        omega = rng.uniform(0.1, 10.0, 64)
        f = rng.normal(size=64)
        bound = p / (p - 1.0) * lp_norm(f, mu, omega, p)
        for t in range(1, fam.n_systems + 1):
            m = maximal_function(space, mu, f, "dyadic", weight=omega,
                                 system=fam.system(t))
            worst = max(worst, lp_norm(m, mu, omega, p) / bound)
    _verdict(8, worst <= 1.0 + REL_TOL,
             "weighted dyadic maximal bounded by the conjugate exponent",
             f"200 random (w, f, p) x {fam.n_systems} systems, "
             f"max ratio {worst:.4f}")


def test_criterion_9_ap_controlled_maximal_bound():
    fam = grid64_family()
    space = fam.space
    mu = np.ones(64)
    rng = np.random.default_rng(89)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        p_conj = p / (p - 1.0)
        for _ in range(20):
            omega = rng.uniform(0.1, 10.0, 64)
            f = rng.normal(size=64)
            norm_f = lp_norm(f, mu, omega, p)
            for t in range(1, fam.n_systems + 1):
                sys_t = fam.system(t)
                m = maximal_function(space, mu, f, "dyadic", system=sys_t)
                a_p = ap_constant(space, mu, omega, p, "dyadic",
                                  system=sys_t)
                bound = (p ** (1.0 / (p - 1.0)) * p_conj
                         * a_p ** (1.0 / (p - 1.0)) * norm_f)
                worst = max(worst, lp_norm(m, mu, omega, p) / bound)
    _verdict(9, worst <= 1.0 + REL_TOL,
             "unweighted dyadic maximal obeys the weight-constant bound",
             f"p in (3/2, 2, 3) x 20 pairs x {fam.n_systems} systems, "
             f"max ratio {worst:.4f}")


def test_criterion_10_comparability_and_oscillation_transfer():
    fam = grid64_family()
    space = fam.space
    mu = np.ones(64)
    rng = np.random.default_rng(90)
    fs = [rng.normal(size=64) for _ in range(20)]
    rep = verify_comparability(fam, mu, fs)

    # norm-level oscillation transfer with independently assembled
    # constants: doubling data times the sandwich radius ratios
    c_mu, c_exp = doubling_constant(space, mu)
    consts = fam.system(1).constants
    c_a = c_mu * (consts.outer_const / consts.inner_const) ** c_exp
    c_ap = c_mu * (2.0 * consts.tri_const * consts.outer_const
                   / DELTA ** 2) ** c_exp
    ok_bmo = True
    for f in fs:
        b = bmo_norm(space, mu, f, "ball")
        ds = [bmo_norm(space, mu, f, "dyadic", system=fam.system(t))
              for t in range(1, fam.n_systems + 1)]
        ok_bmo = ok_bmo and max(ds) <= 2.0 * c_a * b * (1.0 + REL_TOL)
        ok_bmo = ok_bmo and b <= 2.0 * c_ap * sum(ds) * (1.0 + REL_TOL)
    _verdict(10, rep.passed and ok_bmo,
             "pointwise comparability and both oscillation transfers hold",
             f"20 functions x {fam.n_systems} systems, "
             f"{sum(c.checked for c in rep.checks)} pointwise checks")


def test_criterion_11_micro_oracles_match_bruteforce():
    ok = True
    # two points one apart, equal mass halves, f = (1, 0)
    space2 = QuasiMetricSpace.from_line([0.0, 1.0])
    d2 = [[0.0, 1.0], [1.0, 0.0]]
    mu2 = np.array([0.5, 0.5])
    f2 = np.array([1.0, 0.0])
    got = maximal_function(space2, mu2, f2, "ball")
    ok = ok and got == pytest.approx([1.0, 0.5])
    ok = ok and bruteforce.maximal_scan(d2, mu2.tolist(), f2.tolist()) \
        == pytest.approx([1.0, 0.5])
    ok = ok and bmo_norm(space2, mu2, f2, "ball") == pytest.approx(0.5)
    ok = ok and bruteforce.bmo_scan(d2, mu2.tolist(), f2.tolist()) \
        == pytest.approx(0.5)
    omega2 = np.array([4.0, 1.0])
    ok = ok and ap_constant(space2, mu2, omega2, 2.0, "ball") \
        == pytest.approx(25.0 / 16.0)
    ok = ok and bruteforce.ap_scan(d2, mu2.tolist(), omega2.tolist(), 2.0) \
        == pytest.approx(25.0 / 16.0)

    # the four-point line at ratio 1/4: nets, parents, cubes, one ball
    line4 = [0.0, 1.0, 3.0, 7.0]
    pts = np.asarray(line4)
    table = np.abs(pts[:, None] - pts[None, :])
    space4 = QuasiMetricSpace.from_table(table, declared_tri_const=1.0)
    d4 = table.tolist()
    hier = build_reference_hierarchy(space4, 0.25, mode="exploratory")
    for k in hier.level_ks():
        expect = bruteforce.greedy_net_scan(d4, range(4), 0.25 ** k)
        ok = ok and hier.level(k).tolist() == expect
    ok = ok and hier.level(-1).tolist() == [0, 3]
    ok = ok and hier.level(0).tolist() == [0, 1, 2, 3]

    levels = [np.array([0, 3]), np.array([0, 1, 2, 3])]
    order = build_partial_order(space4, levels, 0.25, 1.0, 1.0, 1.0,
                                k_top=-1, mode="exploratory")
    expect = bruteforce.parent_scan(d4, [0, 3], [0, 1, 2, 3], 2.0, 4.0)
    flags = tight_flags(space4, order.constants, -1, *levels, order.maps[0])
    ok = ok and list(zip(order.maps[0].tolist(), flags.tolist())) == expect
    ok = ok and order.maps[0].tolist() == [0, 0, 0, 1]

    system = build_cube_system(space4, levels, order)
    members = [c.members.tolist() for c in system.cubes_at(-1)]
    closure = bruteforce.descendant_closure([order.maps[0].tolist()], 4)
    oracle_members = [[c for c in range(4) if closure[0][c] == i]
                      for i in range(2)]
    ok = ok and members == oracle_members == [[0, 1, 2], [3]]

    got_ball = sorted(ball(space4, 0, 4.0).tolist())
    ok = ok and got_ball == bruteforce.ball_scan(d4, 0, 4.0) == [0, 1, 2]
    _verdict(11, ok, "hand-computed micro values agree with brute force",
             "two-point maximal/BMO/A_2 and the four-point line structure")
