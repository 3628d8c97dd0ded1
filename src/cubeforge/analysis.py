"""Measures, maximal operators, and weight constants on finite spaces.

Everything here treats the point set as a finite measure space: a measure
is a positive mass per point, and "all balls" means the prefixes of each
center's stably sorted distance row that end where the distance grows.
The ball world reads them from QuasiMetricSpace.ball_blocks, a block of
centers at a time: ball masses and averages are prefix sums over every rank
of a block, a ball's value is read at its last rank only, and a point's
supremum is a reverse running max over the ranks, gathered back to point
order. The dyadic operators sweep each distinct level of the systems passed
in once; both maximal kernels answer a list of functions from that one
sweep. The verify_* functions check the constant-carrying inequalities
between the two worlds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjacent import AdjacentFamily, find_containing_cubes
from .constants import _REL_TOL
from .cubes import CubeSystem
from .errors import BadSpec, ConfigError, CubeforgeError, PreconditionFail
from .report import VerificationReport
from . import space as space_module
from .space import QuasiMetricSpace

_ABS_TOL = 1e-12
_SLACK = 1e-12   # relative to the magnitude of the logs compared

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


def _vector(v, n: int, name: str) -> np.ndarray:
    """v as a float vector of n entries; ConfigError naming v otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ConfigError(f"{name} has shape {v.shape}, expected ({n},)")
    return v


def _weights_of(mu, n: int) -> np.ndarray:
    """Accept a Measure or a bare weight vector of n masses; validate
    either way."""
    w = mu.weights if isinstance(mu, Measure) else Measure(mu).weights
    return _vector(w, n, "mu")


def _positive(v, n: int, name: str) -> np.ndarray:
    """_vector(v, n, name), refused unless every entry is positive."""
    v = _vector(v, n, name)
    if not np.all(v > 0):
        raise ConfigError("weight must be strictly positive")
    return v


def lp_norm(values, mu, omega, p: float) -> float:
    """Discrete weighted norm: (sum |v(x)|^p omega(x) mu({x}))^(1/p)."""
    v = np.abs(np.asarray(values, dtype=float))
    w = _weights_of(mu, v.size)
    omega = _vector(omega, v.size, "omega")
    return float(np.sum(v ** p * omega * w) ** (1.0 / p))


# -- doubling ----------------------------------------------------------------

def doubling_constant(space: QuasiMetricSpace, mu):
    """Smallest C with mu(B(x,2r)) <= C mu(B(x,r)) over realized balls.

    Returns (C, log2(C)). Before returning, sweeps every realized radius
    pair r <= R per center and confirms the iterated form
    mu(B(x,R)) <= C (R/r)**log2(C) mu(B(x,r)); a violation raises, since
    the sweep bound is derived from the same doubling ratios and cannot
    fail unless the enumeration itself is broken.
    """
    w = _weights_of(mu, space.n)
    top = space._above_diam()
    best = 1.0
    blocks = []
    for ids, order, sorted_rows, last in space.ball_blocks():
        pre = np.cumsum(w[order], axis=1)
        # the ball ending at rank j has radius sorted_rows[:, j + 1]
        radii = np.empty(sorted_rows.shape)
        radii[:, :-1], radii[:, -1] = sorted_rows[:, 1:], top
        # one binary search per row: faster than a merged sort of the block
        below = np.array([np.searchsorted(row, twice) for row, twice
                          in zip(sorted_rows, 2.0 * radii)])
        m_2r = np.take_along_axis(pre, below - 1, axis=1)
        # a prefix cut inside a tie has the radius of the ball just below it
        # and more mass, so its ratio never exceeds that ball's; a center
        # whose ratios hold a NaN is skipped
        best = float(np.fmax.reduce((m_2r / pre).max(axis=1), initial=best))
        blocks.append((ids, radii, pre, last))
    c_exp = math.log2(best)
    bad = _iterated_violations(blocks, best, c_exp)
    if bad:
        raise CubeforgeError(
            f"doubling sweep found {len(bad)} radius pairs breaking the "
            f"iterated bound, first at {bad[0]}")
    return best, c_exp


def _iterated_violations(blocks, best: float, c_exp: float) -> list:
    """Up to four (x, r, R) per center x, in (r, R) pair order, whose
    masses break m(R)/m(r) <= best * (R/r)**c_exp * (1 + tol) for radii
    r < R. `blocks` holds (ids, radii, masses, last) per block of centers
    ids: row i's balls are its ranks where last[i] holds, with those radii
    and masses.

    All pairs of a center hold exactly when the suffix max of
    log m(R) - c_exp log R stays under log best + log m(r) - c_exp log r.
    That O(n) test, run over a whole block with a slack far above its
    rounding, only picks the centers whose pairs are then compared one by
    one by the pairwise formula, so the verdict and the witnesses are those
    of the pairwise formula.
    """
    bound = math.log(best) + math.log1p(_REL_TOL)
    bad = []
    for ids, radii, masses, last in blocks:
        log_m, log_r = np.log(masses), c_exp * np.log(radii)
        h = log_m - log_r
        suffix = np.maximum.accumulate(np.where(last, h, -np.inf)[:, ::-1],
                                       axis=1)[:, ::-1]
        later = np.full(h.shape, -np.inf)   # max of h over the later balls
        later[:, :-1] = suffix[:, 1:]
        slack = _SLACK * (1.0 + abs(bound)
                          + np.max(np.abs(log_m), axis=1, where=last, initial=0.0)
                          + np.max(np.abs(log_r), axis=1, where=last, initial=0.0))
        flagged = ((later - h > (bound - slack)[:, None]) & last).any(axis=1)
        for i in np.flatnonzero(flagged):
            r, m_r = radii[i][last[i]], masses[i][last[i]]
            iu = np.triu_indices(r.size, k=1)
            lhs = m_r[iu[1]] / m_r[iu[0]]
            rhs = best * (r[iu[1]] / r[iu[0]]) ** c_exp
            viol = np.flatnonzero(lhs > rhs * (1.0 + _REL_TOL))
            for j in viol[:4]:
                bad.append((int(ids[i]), float(r[iu[0][j]]),
                            float(r[iu[1][j]])))
    return bad


# -- maximal operators -------------------------------------------------------

def _ball_sums(space, columns):
    """Per block of centers (ball_blocks), (order, last, sums): sums[i, c, j]
    sums columns[i] over the prefix order[c, :j + 1], a ball where
    last[c, j] holds. Dense spaces only: the sharp sweep is O(n**3)."""
    if space.table is None:
        raise BadSpec("ball averages need a dense distance table")
    columns = np.asarray(columns)
    for _, order, _, last in space.ball_blocks():
        yield order, last, np.cumsum(columns[:, order], axis=-1)


def _cube_sums(systems, columns):
    """Per distinct level of the systems, (idx, held, sums): idx is its
    assign array, held the position in `systems` of each level holding it,
    and sums[i][q] sums columns[i] over cube q. Levels are grouped on their
    cube count and assign bytes, never on object identity. columns[0] must
    be a positive mass: a point in no cube (assign -1) or a cube with no
    point, both loadable by from_json, raises PreconditionFail."""
    groups = {}
    for s, system in enumerate(systems):
        for k, pts, idx in zip(system.level_ks(), system.level_points,
                               system.assign):
            key = (pts.size, idx.tobytes())
            groups.setdefault(key, (k, pts.size, idx, []))[3].append(s)
    for k, size, idx, held in groups.values():
        bad = np.flatnonzero(idx < 0)
        if bad.size:
            raise PreconditionFail(
                f"level {k}: point {int(bad[0])} lies in no cube")
        sums = np.array([np.bincount(idx, c, size) for c in columns])
        empty = np.flatnonzero(sums[0] == 0)
        if empty.size:
            raise PreconditionFail(
                f"level {k}: cube {int(empty[0])} holds no point")
        yield idx, held, sums


def _ball_values(space, base, fs, sharp: bool):
    """Per function and point, the largest base-average of |f| (sharp: of
    |f - f_B|, f_B the signed average) over the realized balls holding the
    point: a (len(fs), n) array from one sweep of ball_blocks."""
    fs = np.reshape(fs, (-1, space.n))
    out = np.zeros(fs.shape)
    columns = [base, *(base * (fs if sharp else np.abs(fs)))]
    for order, last, sums in _ball_sums(space, columns):
        vals = sums[1:] / sums[0]
        if sharp:
            vals = _oscillation_sums(order, base, fs, vals) / sums[0]
        vals[:, ~last] = 0.0   # a prefix that is no ball
        # the point at rank j lies in the balls ending at rank j or later
        sup = np.maximum.accumulate(vals[..., ::-1], axis=-1)[..., ::-1]
        rank = np.empty_like(order)
        np.put_along_axis(rank, order, np.arange(order.shape[1]), axis=1)
        out = np.maximum(out, np.take_along_axis(sup, rank[None], axis=-1)
                         .max(axis=1))
    return out


def _oscillation_sums(order, base, fs, means):
    """sums[i, c, j] = sum over k <= j of base·|f_i - means[i, c, j]| at the
    point order[c, k], for every function f_i of fs. Rows of order go in
    sub-blocks of rows·n² <= max(BALL_CELLS, n²) cells; each sub-block's
    rank-masked base, zero past rank j, serves every function, so every
    sum adds the same n terms, zeros included, in the same order as a sum
    over one ball's masked row."""
    rows, n = order.shape
    step = max(space_module.BALL_CELLS, n * n) // (n * n)
    lower = np.tri(n, dtype=bool)   # lower[j, k]: rank k is in ball j
    sums = np.empty(means.shape)
    for r0 in range(0, rows, step):
        o = order[r0:r0 + step]
        masked = np.where(lower, base[o][:, None, :], 0.0)
        for i, f in enumerate(fs):
            dev = f[o][:, None, :] - means[i, r0:r0 + step, :, None]
            np.abs(dev, out=dev)
            dev *= masked
            dev.sum(axis=2, out=sums[i, r0:r0 + step])
    return sums


def _dyadic_values(systems, base, fs, sharp: bool):
    """Per function, system and point, the largest base-average of |f|
    (sharp: of |f - f_Q|, f_Q the signed cube average) over the cubes of
    the point's chain: a (len(fs), len(systems), n) array, so a family call
    holds F·K·n floats for F functions and K systems."""
    fs = np.reshape(fs, (-1, len(base)))
    out = np.zeros((len(fs), len(systems), len(base)))
    columns = [base, *(base * (fs if sharp else np.abs(fs)))]
    for idx, held, sums in _cube_sums(systems, columns):
        val = sums[1:] / sums[0]
        if sharp:
            for i, f in enumerate(fs):
                dev = base * np.abs(f - val[i][idx])
                val[i] = np.bincount(idx, weights=dev,
                                     minlength=sums.shape[1]) / sums[0]
        for i, v in enumerate(val[:, idx]):   # per function: |held|·n temps
            out[i, held] = np.maximum(out[i, held], v)
    return out


def maximal_function(space: QuasiMetricSpace, mu, f, variant: str = "ball",
                     weight=None, system: Optional[CubeSystem] = None):
    """Pointwise maximal averages of |f|.

    variant "ball": max over every realized ball containing the point.
    variant "dyadic": max over the point's cube chain in `system`.
    "sharp"/"dyadic_sharp": same suprema, but of the average oscillation
    |f - f_B| about the signed ball (cube) average f_B.
    Passing `weight` replaces the averaging measure mu by weight*mu.
    """
    if variant not in MAXIMAL_VARIANTS:
        raise ConfigError(f"unknown maximal variant {variant!r}")
    w = _weights_of(mu, space.n)
    f = _vector(f, space.n, "f")
    base = w if weight is None else w * _positive(weight, space.n, "weight")
    if variant in ("dyadic", "dyadic_sharp"):
        if system is None:
            raise ConfigError("dyadic variants need a cube system")
        return _dyadic_values([system], base, [f],
                              variant == "dyadic_sharp")[0, 0]
    return _ball_values(space, base, [f], variant == "sharp")[0]


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
    w = _weights_of(mu, space.n)
    omega = _positive(omega, space.n, "omega")
    if variant == "dyadic" and system is None:
        raise ConfigError("dyadic variants need a cube system")
    return _ap_values(space, w, omega, p,
                      [system] if variant == "dyadic" else None)[0]


def _ap_values(space, w, omega, p: float, systems=None) -> list:
    """The A_p sup over the realized balls (systems None: one value) or per
    system over its cubes, each distinct level summed once. The sup of a
    center's balls or of a level's cubes is skipped when it is NaN."""
    columns = [w, w * omega, w * omega ** (-1.0 / (p - 1.0))]

    def ratio(m, wm, sm):
        return wm * sm ** (p - 1.0) / m ** p

    sups = (((held, ratio(*s).max(axis=-1, keepdims=True))
             for _, held, s in _cube_sums(systems, columns))
            if systems is not None else
            (([0], np.max(ratio(*s), axis=-1, where=last, initial=-np.inf))
             for _, last, s in _ball_sums(space, columns)))
    out = np.zeros(1 if systems is None else len(systems))
    for held, sup in sups:
        out[held] = np.fmax(out[held], np.fmax.reduce(sup))
    return out.tolist()


def bmo_norm(space: QuasiMetricSpace, mu, f, variant: str = "ball",
             system: Optional[CubeSystem] = None) -> float:
    """sup over balls (or cubes) of the average oscillation |f - f_B|.

    f_B is the signed average, which makes the norm vanish exactly on
    constants and shift-invariant. Every ball holds its center and every
    cube of a built system holds a point, so the sup is the largest value
    of the sharp maximal function.
    """
    if variant not in SUP_VARIANTS:
        raise ConfigError(f"unknown oscillation variant {variant!r}")
    sharp = "sharp" if variant == "ball" else "dyadic_sharp"
    return float(maximal_function(space, mu, f, sharp, system=system).max())


# -- comparability of the two maximal worlds ---------------------------------

def _instance_constants(family: AdjacentFamily, weights):
    """Doubling data plus the two transfer constants of this family.

    C_a bounds mass(outer ball of Q) / mass(Q) and C_a_prime bounds
    mass(containing cube of B) / mass(B): the doubling constant raised to
    the radius ratios `outer_ratio` and `containing_ratio` of the family's
    constants, the latter at family.coarsening, the generations a
    containing-cube query answers above the ball radius.
    """
    space = family.space
    c_mu_pair = doubling_constant(space, weights)
    c_const, c_exp = c_mu_pair
    consts = family.system(1).constants
    c_a = c_const * consts.outer_ratio ** c_exp
    c_a_prime = c_const * consts.containing_ratio(family.coarsening) ** c_exp
    return {"C_mu": c_const, "c_mu": c_exp, "C_a": c_a, "C_a_prime": c_a_prime}


def _max_ratio(lhs, rhs):
    """Per row (the last axis reduced), the largest of 0 and lhs/rhs over
    entries with rhs > 0, or inf for a row whose lhs exceeds tolerance on a
    zero of rhs; rhs broadcasts against lhs."""
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    pos = rhs > 0
    ratio = np.divide(lhs, rhs, out=np.zeros(lhs.shape), where=pos)
    return np.where(((lhs > _ABS_TOL) & ~pos).any(axis=-1), np.inf,
                    ratio.max(axis=-1, initial=0.0))


def verify_comparability(family: AdjacentFamily, mu, sample_functions,
                         constants: Optional[dict] = None
                         ) -> VerificationReport:
    """Check the ball/cube mass bounds and the pointwise maximal bounds.

    (a) every cube's outer ball carries at most C_a times the cube's mass,
    and every realized ball's containing cube carries at most C_a_prime
    times the ball's mass; (b) for each sample function, pointwise and for
    every system t: dyadic maximal <= C_a * ball maximal, ball maximal <=
    C_a_prime * sum_t dyadic maximal, and the sharp analogues with twice
    the constants. The report records the empirical extremal ratios next
    to the asserted constants. `constants` takes _instance_constants of
    the same family and measure when the caller already has them.
    """
    space = family.space
    w = _weights_of(mu, space.n)
    funcs = [_vector(f, space.n, f"sample_functions[{fi}]")
             for fi, f in enumerate(sample_functions)]
    if any(sys_t.mode != "strict" for sys_t in family.systems):
        raise PreconditionFail("comparability bounds need strict-mode systems")
    info = constants if constants is not None \
        else _instance_constants(family, w)
    c_a, c_ap = info["C_a"], info["C_a_prime"]
    delta = family.delta
    outer = family.system(1).constants.outer_const
    rep = VerificationReport("maximal function comparability")

    # (a) cube mass vs its outer ball; one ratio array per distinct level
    # content and one block of outer balls for it
    ratios = {}
    worst = 0.0
    checked = 0
    bad = []
    for t, sys_t in enumerate(family.systems, start=1):
        for k, pts, (flat, start) in zip(sys_t.level_ks(), sys_t.level_points,
                                         sys_t.members):
            key = (k, pts.tobytes(), flat.tobytes(), start.tobytes())
            if key not in ratios:
                empty = np.flatnonzero(np.diff(start) == 0)
                if empty.size:
                    raise PreconditionFail(
                        f"level {k}: cube {int(empty[0])} holds no point")
                near = space.dist_rows(pts) < outer * delta ** k
                start = start.tolist()
                ratios[key] = np.array([
                    float(w[row].sum()) / float(w[flat[s:e]].sum())
                    for row, s, e in zip(near, start, start[1:])])
            ratio = ratios[key]
            worst = max(worst, float(ratio.max(initial=0.0)))
            checked += ratio.size
            bad.extend((t, k, int(i), float(ratio[i]))
                       for i in np.flatnonzero(ratio > c_a * (1.0 + _REL_TOL)))
    rep.add("cube_outer_ball_mass", not bad, checked, bad,
            details={"C_a": c_a, "empirical": worst, **info})

    # (a) ball mass vs its containing cube
    worst = 0.0
    checked = 0
    bad = []
    flags = {"ok": 0, "clamped_coarse": 0, "underflow": 0}
    for x, order, _, ends, radii in space.ball_sweep():
        pre = np.cumsum(w[order])
        qs = find_containing_cubes(family, x, radii)
        _, hits = np.unique(qs.slot, return_counts=True)
        for q, n_hits in zip(qs.cubes, hits.tolist()):
            flags[q.flag] += n_hits
        cube_mass = np.array([float(w[m].sum()) for m in qs.members])
        ratio = cube_mass[qs.slot] / pre[ends - 1]
        worst = max(worst, float(ratio.max()))
        checked += radii.size
        for j in np.flatnonzero(ratio > c_ap * (1.0 + _REL_TOL)):
            bad.append((int(x), float(radii[j]), float(ratio[j])))
    rep.add("ball_containing_cube_mass", not bad, checked, bad,
            details={"C_a_prime": c_ap, "empirical": worst, "flags": flags})

    # (b) pointwise comparability, plain then sharp, every function at once:
    # ratios are (function, system) against the ball maximal and (function,)
    # against the sum over systems
    for sharp, prefix, scale in ((False, "", 1.0), (True, "sharp_", 2.0)):
        m_ball = _ball_values(space, w, funcs, sharp)
        m_dy = _dyadic_values(family.systems, w, funcs, sharp)
        for name, const, ratio in (
                ("dyadic_le_ball", c_a, _max_ratio(m_dy, m_ball[:, None])),
                ("ball_le_dyadic_sum", c_ap,
                 _max_ratio(m_ball, m_dy.sum(axis=1)))):
            const *= scale
            hits = np.argwhere(ratio > const * (1.0 + _REL_TOL))
            # witnesses (fi, t, ratio) or (fi, ratio), systems t from 1
            bad = [(*(ix + np.arange(ix.size)).tolist(),
                    float(ratio[tuple(ix)])) for ix in hits]
            rep.add(prefix + name, not bad, ratio.size * space.n, bad,
                    details={"constant": const,
                             "empirical": float(ratio.max(initial=0.0))})
        del m_dy   # F·K·n floats: free them before the sharp pass
    return rep


def verify_weighted_bounds(family: AdjacentFamily, mu, omega, f, p: float,
                           constants: Optional[dict] = None
                           ) -> VerificationReport:
    """Check the weighted-norm bounds for the dyadic maximal operators.

    (a) for every system t the weighted dyadic maximal is bounded on the
    weighted p-norm by the conjugate exponent alone, uniformly in all
    weights; (b) the unweighted dyadic maximal obeys the A_p-controlled
    bound p^(1/(p-1)) p' ||omega||_Ap^(1/(p-1)) ||f||; (c) the dyadic
    oscillation sups compare to the ball one with the doubled transfer
    constants of verify_comparability (`constants` as there).
    """
    if not p > 1:
        raise ConfigError(f"exponent p must exceed 1, got {p}")
    space = family.space
    w = _weights_of(mu, space.n)
    omega = _positive(omega, space.n, "omega")
    f = _vector(f, space.n, "f")
    p_conj = p / (p - 1.0)
    norm_f = lp_norm(f, w, omega, p)
    rep = VerificationReport("weighted maximal bounds")

    info = constants if constants is not None \
        else _instance_constants(family, w)
    c_a, c_ap = info["C_a"], info["C_a_prime"]
    osc_ball = bmo_norm(space, w, f, "ball")
    bound_a = p_conj * norm_f
    m_w = _dyadic_values(family.systems, w * omega, [f], False)[0]
    m_d = _dyadic_values(family.systems, w, [f], False)[0]
    osc_dy = _dyadic_values(family.systems, w, [f], True)[0].max(1).tolist()
    a_ps = _ap_values(space, w, omega, p, family.systems)
    doob, buckley = [], []
    bad_a, bad_b, bad_c = [], [], []
    for t, (m_w_t, m_d_t, osc, a_p) in enumerate(
            zip(m_w, m_d, osc_dy, a_ps), start=1):
        lhs_a = lp_norm(m_w_t, w, omega, p)
        doob.append({"t": t, "norm": lhs_a, "bound": bound_a})
        if lhs_a > bound_a * (1.0 + _REL_TOL):
            bad_a.append((t, lhs_a, bound_a))
        lhs_b = lp_norm(m_d_t, w, omega, p)
        bound_b = p ** (1.0 / (p - 1.0)) * p_conj * a_p ** (1.0 / (p - 1.0)) * norm_f
        buckley.append({"t": t, "norm": lhs_b, "A_p": a_p, "bound": bound_b})
        if lhs_b > bound_b * (1.0 + _REL_TOL):
            bad_b.append((t, lhs_b, bound_b))
        if osc > 2.0 * c_a * osc_ball * (1.0 + _REL_TOL) + _ABS_TOL:
            bad_c.append(("dyadic_le_ball", t, osc))
    if osc_ball > 2.0 * c_ap * sum(osc_dy) * (1.0 + _REL_TOL) + _ABS_TOL:
        bad_c.append(("ball_le_dyadic_sum", osc_ball))
    rep.add("weighted_dyadic_norm", not bad_a, family.n_systems, bad_a,
            details={"per_system": doob, "p_conj": p_conj, "norm_f": norm_f},
            note="uniform in the weight")
    rep.add("ap_controlled_norm", not bad_b, family.n_systems, bad_b,
            details={"per_system": buckley})
    rep.add("oscillation_transfer", not bad_c, family.n_systems + 1, bad_c,
            details={"ball": osc_ball, "dyadic": osc_dy,
                     "C_a": c_a, "C_a_prime": c_ap})
    return rep
