"""Measures, maximal operators, and weight constants on finite spaces.

Everything here treats the point set as a finite measure space: a measure
is a positive mass per point, "all balls" means the prefixes of each
center's stably sorted distance row (QuasiMetricSpace.ball_sweep), so ball
masses and averages are per-center prefix sums, and the dyadic operators
run over the cube chains of a built system. The verify_* functions compare
the two worlds and assert the constant-carrying inequalities between them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjacent import AdjacentFamily, find_containing_cube
from .cubes import CubeSystem
from .errors import BadSpec, ConfigError, CubeforgeError, PreconditionFail
from .report import VerificationReport
from .space import QuasiMetricSpace

_REL_TOL = 1e-9
_ABS_TOL = 1e-12

MAXIMAL_VARIANTS = ("ball", "dyadic", "sharp", "dyadic_sharp")
SUP_VARIANTS = ("ball", "dyadic")


@dataclass
class Measure:
    """Positive point masses; the measure of a set is a plain weight sum."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise ConfigError("measure needs a nonempty 1-d weight vector")
        if not np.all(self.weights > 0):
            raise ConfigError("measure weights must be strictly positive")

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def mass(self, members) -> float:
        return float(self.weights[members].sum())


def _weights_of(mu) -> np.ndarray:
    """Accept a Measure or a bare weight vector; validate either way."""
    if isinstance(mu, Measure):
        return mu.weights
    return Measure(mu).weights


def lp_norm(values, mu, omega, p: float) -> float:
    """Discrete weighted norm: (sum |v(x)|^p omega(x) mu({x}))^(1/p)."""
    w = _weights_of(mu)
    v = np.abs(np.asarray(values, dtype=float))
    return float(np.sum(v ** p * np.asarray(omega, dtype=float) * w) ** (1.0 / p))


# -- doubling ----------------------------------------------------------------

def doubling_constant(space: QuasiMetricSpace, mu):
    """Smallest C with mu(B(x,2r)) <= C mu(B(x,r)) over realized balls.

    Returns (C, log2(C)). Before returning, sweeps every realized radius
    pair r <= R per center and confirms the iterated form
    mu(B(x,R)) <= C (R/r)**log2(C) mu(B(x,r)); a violation raises, since
    the sweep bound is derived from the same doubling ratios and cannot
    fail unless the enumeration itself is broken.
    """
    w = _weights_of(mu)
    best = 1.0
    per_center = []
    for _, order, sorted_row, ends, radii in space.ball_sweep():
        pre = np.cumsum(w[order])
        m_r = pre[ends - 1]
        m_2r = pre[np.searchsorted(sorted_row, 2.0 * radii, side="left") - 1]
        best = max(best, float((m_2r / m_r).max()))
        per_center.append((radii, m_r))
    c_exp = math.log2(best)
    bad = []
    size = iu = None
    for x, (radii, m_r) in enumerate(per_center):
        if radii.size != size:   # on clouds every center has n radii
            size, iu = radii.size, np.triu_indices(radii.size, k=1)
        lhs = m_r[iu[1]] / m_r[iu[0]]
        rhs = best * (radii[iu[1]] / radii[iu[0]]) ** c_exp
        viol = np.flatnonzero(lhs > rhs * (1.0 + _REL_TOL))
        for j in viol[:4]:
            bad.append((x, float(radii[iu[0][j]]), float(radii[iu[1][j]])))
    if bad:
        raise CubeforgeError(
            f"doubling sweep found {len(bad)} radius pairs breaking the "
            f"iterated bound, first at {bad[0]}")
    return best, c_exp


# -- maximal operators -------------------------------------------------------

def _ball_sums(space, columns):
    """Per center, (order, ends, sums): sums[i, j] sums columns[i] over the
    ball order[:ends[j]]. Dense spaces only: the sharp sweep is O(n**3)."""
    if space.table is None:
        raise BadSpec("ball averages need a dense distance table")
    columns = np.asarray(columns)
    for _, order, _, ends, _ in space.ball_sweep():
        yield order, ends, np.cumsum(columns[:, order], axis=1)[:, ends - 1]


def _ball_values(space, base, f, sharp: bool, absolute_mean: bool = False):
    """Per center, (order, ends, vals): vals[j] is the base-average of |f|
    over the ball order[:ends[j]], or of |f - f_B| when sharp is set, f_B the
    signed ball average (absolute_mean: the average of |f|). Sharp sums
    |f - f_B| over a rank-masked (balls, n) block, so constants give 0."""
    center = np.abs(f) if absolute_mean else f
    summed = base * (center if sharp else np.abs(f))
    for order, ends, (mass, tot) in _ball_sums(space, [base, summed]):
        if sharp:
            dev = np.abs(f[order] - (tot / mass)[:, None])
            dev *= base[order]
            dev[np.arange(len(order)) >= ends[:, None]] = 0.0
            tot = dev.sum(axis=1)
        yield order, ends, tot / mass


def _dyadic_values(system: CubeSystem, base, f, sharp: bool,
                   absolute_mean: bool = False):
    """Per-point running max of cube averages down the chain, plus the
    overall per-cube max (used by the sup-style quantities)."""
    out = np.zeros(len(base))
    overall = 0.0
    center = np.abs(f) if absolute_mean else f
    for idx in system.assign:
        tot = np.bincount(idx, weights=base)
        if sharp:
            f_q = np.bincount(idx, weights=base * center) / tot
            dev = np.abs(f - f_q[idx])
            val = np.bincount(idx, weights=base * dev) / tot
        else:
            val = np.bincount(idx, weights=base * np.abs(f)) / tot
        overall = max(overall, float(val.max()))
        np.maximum(out, val[idx], out=out)
    return out, overall


def maximal_function(space: QuasiMetricSpace, mu, f, variant: str = "ball",
                     weight=None, system: Optional[CubeSystem] = None,
                     absolute_mean: bool = False):
    """Pointwise maximal averages of |f|.

    variant "ball": max over every realized ball containing the point.
    variant "dyadic": max over the point's cube chain in `system`.
    "sharp"/"dyadic_sharp": same suprema, but of the average oscillation
    |f - f_B| about the ball (cube) average. The centering value f_B is the
    signed average by default; absolute_mean uses the average of |f|
    instead (the two agree on nonnegative f).
    Passing `weight` replaces the averaging measure mu by weight*mu.
    """
    if variant not in MAXIMAL_VARIANTS:
        raise ConfigError(f"unknown maximal variant {variant!r}")
    w = _weights_of(mu)
    f = np.asarray(f, dtype=float)
    base = w if weight is None else w * np.asarray(weight, dtype=float)
    if variant in ("dyadic", "dyadic_sharp"):
        if system is None:
            raise ConfigError("dyadic variants need a cube system")
        out, _ = _dyadic_values(system, base, f, variant == "dyadic_sharp",
                                absolute_mean)
        return out
    out = np.zeros(space.n)
    for order, ends, vals in _ball_values(space, base, f, variant == "sharp",
                                          absolute_mean):
        # ranks ends[j-1] .. ends[j]-1 lie in balls j, j+1, ... only
        sup = np.maximum.accumulate(vals[::-1])[::-1]
        out[order] = np.maximum(out[order],
                                np.repeat(sup, np.diff(ends, prepend=0)))
    return out


def ap_constant(space: QuasiMetricSpace, mu, omega, p: float,
                variant: str = "ball",
                system: Optional[CubeSystem] = None) -> float:
    """sup over balls (or cubes) of omega(B) sigma(B)^(p-1) / mu(B)^p.

    All set masses are integrals against mu; sigma = omega**(-1/(p-1)).
    """
    if not p > 1:
        raise ConfigError(f"exponent p must exceed 1, got {p}")
    if variant not in SUP_VARIANTS:
        raise ConfigError(f"unknown A_p variant {variant!r}")
    w = _weights_of(mu)
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega > 0):
        raise ConfigError("weight must be strictly positive")
    sigma = omega ** (-1.0 / (p - 1.0))
    if variant == "dyadic":
        if system is None:
            raise ConfigError("dyadic variants need a cube system")
        best = 0.0
        for idx in system.assign:
            m = np.bincount(idx, weights=w)
            wm = np.bincount(idx, weights=w * omega)
            sm = np.bincount(idx, weights=w * sigma)
            best = max(best, float((wm * sm ** (p - 1.0) / m ** p).max()))
        return best
    best = 0.0
    for _, _, (m, wm, sm) in _ball_sums(space, [w, w * omega, w * sigma]):
        best = max(best, float((wm * sm ** (p - 1.0) / m ** p).max()))
    return best


def bmo_norm(space: QuasiMetricSpace, mu, f, variant: str = "ball",
             system: Optional[CubeSystem] = None,
             absolute_mean: bool = False) -> float:
    """sup over balls (or cubes) of the average oscillation |f - f_B|.

    f_B defaults to the signed average, which makes the norm vanish
    exactly on constants and shift-invariant; absolute_mean centers on the
    average of |f| instead, for callers wanting that reading.
    """
    if variant not in SUP_VARIANTS:
        raise ConfigError(f"unknown oscillation variant {variant!r}")
    w = _weights_of(mu)
    f = np.asarray(f, dtype=float)
    if variant == "dyadic":
        if system is None:
            raise ConfigError("dyadic variants need a cube system")
        _, overall = _dyadic_values(system, w, f, True, absolute_mean)
        return overall
    return max(float(vals.max()) for _, _, vals
               in _ball_values(space, w, f, True, absolute_mean))


# -- comparability of the two maximal worlds ---------------------------------

def _instance_constants(family: AdjacentFamily, weights):
    """Doubling data plus the two transfer constants of this family.

    C_a bounds mass(outer ball of Q) / mass(Q) via the doubling sweep at
    radii outer_const vs inner_const; C_a_prime bounds mass(containing
    cube of B) / mass(B), where the containing-cube query answers at most
    two (pinned: three) generations coarser than the ball radius.
    """
    space = family.space
    c_mu_pair = doubling_constant(space, weights)
    c_const, c_exp = c_mu_pair
    consts = family.system(1).constants
    inner, outer = consts.inner_const, consts.outer_const
    delta = consts.delta
    tri = consts.tri_const
    coarsen = 3.0 if family.distinguished is not None else 2.0
    c_a = c_const * (outer / inner) ** c_exp
    c_a_prime = c_const * (2.0 * tri * outer / delta ** coarsen) ** c_exp
    return {"C_mu": c_const, "c_mu": c_exp, "C_a": c_a, "C_a_prime": c_a_prime}


def _max_ratio(lhs, rhs):
    """Largest lhs/rhs over entries with rhs > 0; inf if lhs lives on a
    zero of rhs (beyond tolerance)."""
    lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
    pos = rhs > 0
    worst = float((lhs[pos] / rhs[pos]).max()) if pos.any() else 0.0
    if np.any(lhs[~pos] > _ABS_TOL):
        return math.inf
    return worst


def verify_comparability(family: AdjacentFamily, mu,
                         sample_functions) -> VerificationReport:
    """Check the ball/cube mass bounds and the pointwise maximal bounds.

    (a) every cube's outer ball carries at most C_a times the cube's mass,
    and every realized ball's containing cube carries at most C_a_prime
    times the ball's mass; (b) for each sample function, pointwise and for
    every system t: dyadic maximal <= C_a * ball maximal, ball maximal <=
    C_a_prime * sum_t dyadic maximal, and the sharp analogues with twice
    the constants. The report records the empirical extremal ratios next
    to the asserted constants.
    """
    space = family.space
    w = _weights_of(mu)
    for t in range(1, family.n_systems + 1):
        if family.system(t).mode != "strict":
            raise PreconditionFail(
                "comparability bounds need strict-mode systems")
    info = _instance_constants(family, w)
    c_a, c_ap = info["C_a"], info["C_a_prime"]
    delta = family.delta
    outer = family.system(1).constants.outer_const
    rep = VerificationReport("maximal function comparability")

    # (a) cube mass vs its outer ball
    worst = 0.0
    checked = 0
    bad = []
    for t in range(1, family.n_systems + 1):
        sys_t = family.system(t)
        for k in sys_t.level_ks():
            for i, cube in enumerate(sys_t.cubes_at(k)):
                row = space.dist_row(cube.center)
                ball_mass = float(w[row < outer * delta ** k].sum())
                ratio = ball_mass / float(w[cube.members].sum())
                worst = max(worst, ratio)
                checked += 1
                if ratio > c_a * (1.0 + _REL_TOL):
                    bad.append((t, k, i, ratio))
    rep.add("cube_outer_ball_mass", not bad, checked, bad,
            details={"C_a": c_a, "empirical": worst, **info})

    # (a) ball mass vs its containing cube
    worst = 0.0
    checked = 0
    bad = []
    flags = {"ok": 0, "clamped_coarse": 0, "underflow": 0}
    for x, order, _, ends, radii in space.ball_sweep():
        pre = np.cumsum(w[order])
        for r, end in zip(radii, ends):
            q = find_containing_cube(family, x, float(r))
            flags[q.flag] += 1
            cube_mass = float(w[family.cube_members(q)].sum())
            ball_mass = float(pre[end - 1])
            ratio = cube_mass / ball_mass
            worst = max(worst, ratio)
            checked += 1
            if ratio > c_ap * (1.0 + _REL_TOL):
                bad.append((int(x), float(r), ratio))
    rep.add("ball_containing_cube_mass", not bad, checked, bad,
            details={"C_a_prime": c_ap, "empirical": worst, "flags": flags})

    # (b) pointwise comparability, plain and sharp
    names = ["dyadic_le_ball", "ball_le_dyadic_sum",
             "sharp_dyadic_le_ball", "sharp_ball_le_dyadic_sum"]
    consts = [c_a, c_ap, 2.0 * c_a, 2.0 * c_ap]
    worsts = [0.0, 0.0, 0.0, 0.0]
    counts = [0, 0, 0, 0]
    bads = [[], [], [], []]
    for fi, f in enumerate(sample_functions):
        f = np.asarray(f, dtype=float)
        m_ball = maximal_function(space, w, f, "ball")
        m_sharp = maximal_function(space, w, f, "sharp")
        dy_sum = np.zeros(space.n)
        dy_sharp_sum = np.zeros(space.n)
        for t in range(1, family.n_systems + 1):
            sys_t = family.system(t)
            m_dy = maximal_function(space, w, f, "dyadic", system=sys_t)
            m_dys = maximal_function(space, w, f, "dyadic_sharp", system=sys_t)
            dy_sum += m_dy
            dy_sharp_sum += m_dys
            for slot, lhs, rhs in ((0, m_dy, m_ball), (2, m_dys, m_sharp)):
                ratio = _max_ratio(lhs, rhs)
                worsts[slot] = max(worsts[slot], ratio)
                counts[slot] += space.n
                if ratio > consts[slot] * (1.0 + _REL_TOL):
                    bads[slot].append((fi, t, ratio))
        for slot, lhs, rhs in ((1, m_ball, dy_sum), (3, m_sharp, dy_sharp_sum)):
            ratio = _max_ratio(lhs, rhs)
            worsts[slot] = max(worsts[slot], ratio)
            counts[slot] += space.n
            if ratio > consts[slot] * (1.0 + _REL_TOL):
                bads[slot].append((fi, ratio))
    for slot, name in enumerate(names):
        rep.add(name, not bads[slot], counts[slot], bads[slot],
                details={"constant": consts[slot], "empirical": worsts[slot]})
    return rep


def verify_weighted_bounds(family: AdjacentFamily, mu, omega, f,
                           p: float) -> VerificationReport:
    """Check the weighted-norm bounds for the dyadic maximal operators.

    (a) for every system t the weighted dyadic maximal is bounded on the
    weighted p-norm by the conjugate exponent alone, uniformly in all
    weights; (b) the unweighted dyadic maximal obeys the A_p-controlled
    bound p^(1/(p-1)) p' ||omega||_Ap^(1/(p-1)) ||f||; (c) the dyadic
    oscillation sups compare to the ball one with the doubled transfer
    constants of verify_comparability.
    """
    if not p > 1:
        raise ConfigError(f"exponent p must exceed 1, got {p}")
    space = family.space
    w = _weights_of(mu)
    omega = np.asarray(omega, dtype=float)
    if not np.all(omega > 0):
        raise ConfigError("weight must be strictly positive")
    f = np.asarray(f, dtype=float)
    p_conj = p / (p - 1.0)
    norm_f = lp_norm(f, w, omega, p)
    rep = VerificationReport("weighted maximal bounds")

    doob, buckley = [], []
    bad_a, bad_b = [], []
    for t in range(1, family.n_systems + 1):
        sys_t = family.system(t)
        m_w = maximal_function(space, w, f, "dyadic", weight=omega,
                               system=sys_t)
        lhs_a = lp_norm(m_w, w, omega, p)
        bound_a = p_conj * norm_f
        doob.append({"t": t, "norm": lhs_a, "bound": bound_a})
        if lhs_a > bound_a * (1.0 + _REL_TOL):
            bad_a.append((t, lhs_a, bound_a))
        m_d = maximal_function(space, w, f, "dyadic", system=sys_t)
        a_p = ap_constant(space, w, omega, p, "dyadic", system=sys_t)
        lhs_b = lp_norm(m_d, w, omega, p)
        bound_b = p ** (1.0 / (p - 1.0)) * p_conj * a_p ** (1.0 / (p - 1.0)) * norm_f
        buckley.append({"t": t, "norm": lhs_b, "A_p": a_p, "bound": bound_b})
        if lhs_b > bound_b * (1.0 + _REL_TOL):
            bad_b.append((t, lhs_b, bound_b))
    rep.add("weighted_dyadic_norm", not bad_a, family.n_systems, bad_a,
            details={"per_system": doob, "p_conj": p_conj, "norm_f": norm_f},
            note="uniform in the weight")
    rep.add("ap_controlled_norm", not bad_b, family.n_systems, bad_b,
            details={"per_system": buckley})

    info = _instance_constants(family, w)
    c_a, c_ap = info["C_a"], info["C_a_prime"]
    osc_ball = bmo_norm(space, w, f, "ball")
    osc_dy = [bmo_norm(space, w, f, "dyadic", system=family.system(t))
              for t in range(1, family.n_systems + 1)]
    bad_c = []
    for t, v in enumerate(osc_dy, start=1):
        if v > 2.0 * c_a * osc_ball * (1.0 + _REL_TOL) + _ABS_TOL:
            bad_c.append(("dyadic_le_ball", t, v))
    if osc_ball > 2.0 * c_ap * sum(osc_dy) * (1.0 + _REL_TOL) + _ABS_TOL:
        bad_c.append(("ball_le_dyadic_sum", osc_ball))
    rep.add("oscillation_transfer", not bad_c, family.n_systems + 1, bad_c,
            details={"ball": osc_ball, "dyadic": osc_dy,
                     "C_a": c_a, "C_a_prime": c_ap})
    return rep
