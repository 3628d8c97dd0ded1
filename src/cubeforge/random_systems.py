"""Seedable randomized selection over a labeled hierarchy.

Three variants share one seeding scheme: a master seed spawns an independent
stream per (sample, level), so coordinates across levels are independent and
Monte Carlo runs parallelize reproducibly.

single           per level: a master label uniform on {0..L}; each center
                 then picks uniformly among its children when its primary
                 label matches the master label, else uniformly among its
                 near children (within ratio**(k+1)).
adjacent         per level: one shift uniform on {1..K}; system t realizes
                 the specific rule for the shifted pair label.
adjacent_refined additionally one uniform sibling-ordinal shift per center,
                 applied modulo that center's child count.

`draw_level` draws a level's per-center coordinates in one bounded-integer
call over the whole level, which consumes the stream exactly as one call per
center in index order. The sweep and the single selection estimate draw a
batch of samples at once (`_draw_choices`): the SeedSequence hash, PCG64
seeding and outputs of every (sample, level) key of the batch are computed
in whole uint32/uint64 arrays, and Lemire's bounded step turns the stream's
32-bit words into what Generator.integers returns: the master label from
word 0 when there are two labels or more, then one word per center whose
pool holds more than one id, in center order. A key whose word numpy would
reject, whose master leaves a center without a pool or whose sample index
needs a two-word spawn key is drawn by `draw_level` instead, so every
choice, and every NoNearChild, is draw_level's. An adjacent draw realizes
its family through the one family builder in `adjacent`, whose system t
picks by `specific_pick`; with every shift K (no shift) that is the fixed
family of `build_adjacent_family`. A single draw's outcome closes as a
one-column level table, through the family's closure
(`cubes.build_cube_system`). Every selected-point order comes from
`selected_order`.

Every selected point is guaranteed a probability of at least
tau_0 = 1/((L+1)*M) of being chosen, which drives the boundary-zone decay
estimate: the chance that a point sits within tau * ratio**k of its level-k
cube's complement is at most C_2 * tau**eta with eta = log(1-tau_0)/log(ratio)
and C_2 the `boundary_const` of the selected points' constants.
`estimate_boundary_sweep` estimates that chance for many points and taus at
one level k: each sample realizes levels k and finer once, and every
(point, tau) reads its hit off that one partition.
`estimate_boundary_probability` is its one-point, one-tau case. The sweep
realizes its samples in batches: one batched draw gives each sample its
levels from its own streams, as alone, one `build_partial_order` call over
the batch's (B, m) level lists links them all, composing the batch's
parent maps gives its (B, n) level-k assignments (no pieces: the sweep
reads no member list) and one `_edge_gaps` call reads every hit. B is
the cell budget BATCH_CELLS (about 1 MB of floats) over the cells one
sample adds to the largest block. A failing batch is rerun one sample at a
time, so errors surface in sample order.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import space as space_module
from .adjacent import AdjacentFamily, _build_family
from .constants import require_headroom
from .cubes import CubeSystem, _edge_gaps, build_cube_system
from .errors import ConfigError, CubeforgeError, PreconditionFail, require_id
from .labeling import (
    LabeledHierarchy,
    SelectionOutcome,
    index_to_pair,
    require_near,
    selected_order,
    specific_pick,
)
from .report import VerificationReport
from .streams import M32, key_states, lemire, pcg_jumps, pcg_outputs

WILSON_Z = 1.6448536269514722  # one-sided 95% normal quantile
VARIANTS = ("single", "adjacent", "adjacent_refined")
MIN_SAMPLES = 1000   # the fewest samples a Monte Carlo estimate takes
# cells (about 1 MB of floats) of the largest block one boundary-sweep batch
# holds; the batch size is this over the cells one sample adds
BATCH_CELLS = 2 ** 17


@dataclass
class OmegaSampler:
    labeled: LabeledHierarchy
    variant: str = "single"
    seed: int = 0

    def __post_init__(self):
        self.seed = require_id("seed", self.seed, 0, 2 ** 64, ")")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, "
                              f"got {self.variant!r}")
        require_headroom(self.variant, self.labeled.selected_constants)

    @property
    def n_systems(self) -> int:
        return self.labeled.n_systems

    @property
    def tau_0(self) -> float:
        return 1.0 / self.n_systems

    @property
    def decay_exp(self) -> float:
        """Exponent eta of the boundary decay bound C_2 * tau**eta."""
        return math.log(1.0 - self.tau_0) / math.log(self.labeled.hierarchy.delta)

    @property
    def boundary_const(self) -> float:
        """Prefactor C_2 of the boundary decay bound."""
        return self.labeled.selected_constants.boundary_const

    def to_json(self):
        return {"variant": self.variant, "seed": self.seed,
                "tau_0": self.tau_0, "eta": self.decay_exp,
                "C_2": self.boundary_const}

    # -- raw coordinate draws -------------------------------------------------

    def _rng(self, sample_index: int, k: int):
        ss = np.random.SeedSequence(
            self.seed, spawn_key=(sample_index, k - self.labeled.k_min))
        return np.random.Generator(np.random.PCG64(ss))   # = default_rng(ss)

    @functools.cached_property
    def _single_pools(self) -> list:
        """Per parent level: the ids a single draw picks from (the children,
        then the near pool, both grouped by center); per master label (row)
        and center (column), the center's pool size and its pool's start in
        those ids; and `pcg_jumps` for the most words one key's batched
        draw reads there. Built once per sampler, at its first single
        draw."""
        lab, out = self.labeled, []
        masters = np.arange(lab.max_label + 1)[:, None]
        for primary, (kids, start), (near, near_start) in zip(
                lab.primary, lab.children, lab.near_pool):
            # a center draws from all its children or from its near pool;
            # the near pool is empty exactly when there is no near child
            match = primary == masters
            pool = np.where(match, np.diff(start), np.diff(near_start))
            base = np.where(match, start[:-1], kids.size + near_start[:-1])
            words = (lab.max_label > 0) + int((pool > 1).sum(axis=1).max())
            out.append((np.concatenate((kids, near)), pool, base,
                        pcg_jumps(max(1, (words + 1) // 2))))
        return out

    def draw_level(self, sample_index: int, k: int) -> dict:
        """One level's coordinate; streams are independent across levels.
        The centers of the level draw together (see the module docstring)."""
        lab = self.labeled
        sample_index = require_id("sample index", sample_index, 0, 2 ** 64,
                                  ")")
        j = lab._window(k, lab.k_min, lab.k_max - 1)
        rng = self._rng(sample_index, k)
        if self.variant == "single":
            ids, pools, base, _ = self._single_pools[j]
            master = int(rng.integers(0, lab.max_label + 1))
            pool = pools[master]
            if not pool.all():
                require_near(lab, k, pool == 0)
            return {"master": master,
                    "choice": ids[base[master] + rng.integers(0, pool)]}
        entry = {"shift": int(rng.integers(1, self.n_systems + 1))}
        if self.variant == "adjacent_refined":
            sizes = np.diff(lab.children[j][1])
            require_near(lab, k, sizes == 0)
            entry["ordinals"] = rng.integers(1, sizes + 1)
        return entry

    def _draw_choices(self, samples, ks) -> list:
        """Single-variant choices of a batch: per level k in `ks`, the
        (len(samples), m_k) array whose row i is draw_level(i, k)["choice"].
        Every key's stream is computed in whole arrays (see the module
        docstring); a key goes through `draw_level` when numpy would reject
        one of its words, when its master leaves a center without a pool
        (so draw_level raises NoNearChild) or when its sample index needs a
        two-word spawn key. Levels are finished in order, each in sample
        order."""
        lab = self.labeled
        samples = np.array(samples, dtype=np.uint64)
        js = [lab._window(k, lab.k_min, lab.k_max - 1) for k in ks]
        states = key_states(self.seed, samples.astype(np.uint32),
                            np.array(js, dtype=np.uint32))
        out = []
        for k, j, state in zip(ks, js, states.swapaxes(0, 1)):
            ids, pools, base, jumps = self._single_pools[j]
            raw = pcg_outputs(state, jumps)
            # next_uint32 hands out each 64-bit output low half first
            words = np.stack((raw & M32, raw >> 32), axis=-1).reshape(
                samples.size, -1)
            redraw = samples > M32
            master, first = np.zeros(samples.size, dtype=np.intp), 0
            if lab.max_label:
                master, redraw_m = lemire(words[:, 0], lab.max_label + 1)
                redraw |= redraw_m
                first = 1
            pool = pools[master]
            # a pool of 1 reads no word: numpy's zero-width range
            multi = pool > 1
            at = np.minimum(first + np.cumsum(multi, axis=1) - multi,
                            words.shape[1] - 1)
            pick, rejected = lemire(np.take_along_axis(words, at, axis=1),
                                    np.maximum(pool, 1))
            # a center without a pool may point past the ids; its key is
            # redrawn below
            choice = ids.take(base[master] + pick, mode="clip")
            redraw |= rejected.any(axis=1) | (pool == 0).any(axis=1)
            for r in np.flatnonzero(redraw):
                choice[r] = self.draw_level(int(samples[r]), k)["choice"]
            out.append(choice)
        return out

    def draw(self, sample_index: int = 0) -> dict:
        sample_index = require_id("sample index", sample_index, 0, 2 ** 64,
                                  ")")
        return {"variant": self.variant, "sample": sample_index,
                "levels": {k: self.draw_level(sample_index, k)
                           for k in self.labeled.parent_ks()}}

    # -- realization ----------------------------------------------------------

    def realize_outcome(self, omega: dict) -> SelectionOutcome:
        if omega["variant"] != "single":
            raise ConfigError("only the single variant realizes one outcome; "
                              "adjacent draws realize a family")
        lab = self.labeled
        chosen = [np.asarray(omega["levels"][k]["choice"], dtype=int)
                  for k in lab.parent_ks()]
        rule = {"kind": "sampled_single", "seed": self.seed,
                "sample": omega["sample"],
                "master": {str(k): omega["levels"][k]["master"]
                           for k in lab.parent_ks()}}
        return SelectionOutcome(labeled=lab, rule=rule, chosen=chosen)

    def realize_family(self, omega: dict) -> AdjacentFamily:
        if omega["variant"] == "single":
            raise ConfigError("single draws realize one system, not a family")
        return _build_family(self.labeled, omega["levels"])


def realize_system(labeled: LabeledHierarchy,
                   outcome: SelectionOutcome) -> CubeSystem:
    """Close a selection outcome into a cube system over the chosen centers."""
    z_levels = outcome.new_levels()
    return build_cube_system(labeled.space, z_levels,
                             selected_order(labeled, z_levels))


def sample_outcome(sampler: OmegaSampler, sample_index: int = 0
                   ) -> SelectionOutcome:
    return sampler.realize_outcome(sampler.draw(sample_index))


# -- Monte Carlo estimators ----------------------------------------------------


@dataclass
class SelectionEstimate:
    k: int
    alpha: int
    beta: int
    n_samples: int
    frequency: float
    tau_0: float
    threshold: float
    passed: bool
    t: Optional[int] = None

    def to_json(self):
        out = {"k": self.k, "alpha": self.alpha, "beta": self.beta,
               "N": self.n_samples, "frequency": self.frequency,
               "tau_0": self.tau_0, "threshold": self.threshold,
               "pass": self.passed}
        if self.t is not None:
            out["t"] = self.t
        return out


def estimate_selection_probability(sampler: OmegaSampler, k: int, alpha: int,
                                   beta: int, n_samples: int,
                                   t: int = 1) -> SelectionEstimate:
    """Empirical frequency of the level-k center alpha choosing child beta.

    Passes when the frequency clears tau_0 minus three binomial sigmas. For
    adjacent variants the event is about system t in [1, K] of the realized
    family.
    """
    lab = sampler.labeled
    _check_samples(n_samples)
    # only the levels k_min..k_max - 1 choose children
    k = lab.k_min + lab._window(k, lab.k_min, lab.k_max - 1)
    alpha = require_id("center", alpha, 0, len(lab.hierarchy.level(k)), ")")
    beta = lab.require_child(k, alpha, beta)
    t = require_id("system index", t, 1, sampler.n_systems)
    hits = 0
    if sampler.variant == "single":
        # a chunk's stream holds at most its samples times m_k + 1 words
        chunk = max(1, BATCH_CELLS // (len(lab.hierarchy.level(k)) + 1))
        for lo in range(0, n_samples, chunk):
            picks = sampler._draw_choices(
                range(lo, min(lo + chunk, n_samples)), [k])[0]
            hits += int((picks[:, alpha] == beta).sum())
    else:
        for i in range(n_samples):
            pick = specific_pick(lab, k, index_to_pair(t, lab.max_children),
                                 sampler.draw_level(i, k))
            require_near(lab, k,
                         (pick < 0) & (np.arange(pick.size) == alpha))
            hits += int(pick[alpha]) == beta
    freq = hits / n_samples
    tau_0 = sampler.tau_0
    threshold = tau_0 - 3.0 * math.sqrt(tau_0 * (1.0 - tau_0) / n_samples)
    return SelectionEstimate(k=k, alpha=alpha, beta=beta, n_samples=n_samples,
                             frequency=freq, tau_0=tau_0, threshold=threshold,
                             passed=freq >= threshold,
                             t=None if sampler.variant == "single" else t)


@dataclass
class BoundaryEstimate:
    x: int
    k: int
    tau: float
    n_samples: int
    hits: int
    p_hat: float
    wilson_upper: float
    bound: float
    passed: bool

    def to_json(self):
        return {"x": self.x, "k": self.k, "tau": self.tau,
                "N": self.n_samples, "hits": self.hits, "p_hat": self.p_hat,
                "wilson_upper": self.wilson_upper,
                "bound_C2_tau_eta": self.bound, "pass": self.passed}


def wilson_upper(hits: int, n: int, z: float = WILSON_Z) -> float:
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center + half


def estimate_boundary_probability(sampler: OmegaSampler, x: int, k: int,
                                  tau: float, n_samples: int
                                  ) -> BoundaryEstimate:
    """Chance that x lands within tau * ratio**k of its level-k cube's edge:
    the one-point, one-tau case of `estimate_boundary_sweep`."""
    return estimate_boundary_sweep(sampler, [x], k, [tau], n_samples)[0]


def estimate_boundary_sweep(sampler: OmegaSampler, points, k: int, taus,
                            n_samples: int) -> list[BoundaryEstimate]:
    """Boundary estimates for every point and every tau at level k, points
    outer and taus inner (duplicates give duplicate rows).

    Each sample realizes only levels k and finer, once (coarser coordinates
    cannot move the level-k partition), and every (x, tau) reads its hit off
    that one partition: x is within tau * ratio**k of its cube's edge when
    its nearest point in another cube is. An estimate passes when its 95%
    Wilson upper confidence bound stays under C_2 * tau**eta. A bad call
    raises what the first failing one-pair call in output order would; with
    no pairs, every point or tau given is still checked.
    """
    points, taus, n = list(points), list(taus), sampler.labeled.space.n
    # in the order the one-pair calls would check them, in output order
    k = _check_boundary_args(sampler, k, taus[:1], n_samples)
    ids = [require_id("point", x, 0, n, ")") for x in points[:1]]
    _check_boundary_args(sampler, k, taus[1:], n_samples)
    ids += [require_id("point", x, 0, n, ")") for x in points[1:]]
    if not (ids and taus):
        return []
    delta = sampler.labeled.hierarchy.delta
    eps = np.array([tau * delta ** k for tau in taus])
    pts = np.asarray(ids)
    rows = sampler.labeled.space.dist_rows(pts)
    hits = np.zeros((pts.size, eps.size), dtype=int)
    batch = max(1, BATCH_CELLS // _sample_cells(sampler.labeled, k, pts.size))
    for lo in range(0, n_samples, batch):
        assign = _partial_assign(sampler, range(lo, min(lo + batch,
                                                        n_samples)), k)
        hits += _edge_gaps(rows, assign[:, None, :], assign[:, pts],
                           eps).sum(axis=0)
    out = []
    for (x, tau), h in zip(itertools.product(ids, taus),
                           hits.ravel().tolist()):
        upper = wilson_upper(h, n_samples)
        bound = sampler.boundary_const * tau ** sampler.decay_exp
        out.append(BoundaryEstimate(
            x=x, k=k, tau=tau, n_samples=n_samples, hits=h,
            p_hat=h / n_samples, wilson_upper=upper, bound=bound,
            passed=upper <= bound))
    return out


def _check_boundary_args(sampler: OmegaSampler, k: int, taus: list,
                         n_samples: int) -> int:
    """Level k as a Python int when the arguments other than the points are
    admissible; the taus are checked in order, between the mode and the
    sample count."""
    lab = sampler.labeled
    if sampler.variant != "single":
        raise ConfigError("boundary estimation uses the single variant")
    if lab.hierarchy.mode != "strict":
        raise PreconditionFail("boundary decay needs a strict-mode hierarchy")
    for tau in taus:
        _check_tau(tau)
    _check_samples(n_samples)
    return lab.k_min + lab._window(k, lab.k_min, lab.k_max)


def _check_samples(n_samples) -> None:
    """Raise unless n_samples is an integer count (never a bool or a
    float) of at least MIN_SAMPLES."""
    require_id("sample count", n_samples, -math.inf, math.inf)
    if n_samples < MIN_SAMPLES:
        raise PreconditionFail(f"need at least {MIN_SAMPLES} samples, "
                               f"got {n_samples}")


def _check_tau(tau: float) -> None:
    """Raise unless tau is a positive finite threshold (NaN is neither)."""
    if not tau > 0:
        raise PreconditionFail(f"tau must be positive, got {tau}")
    if not math.isfinite(tau):
        raise PreconditionFail(f"tau must be finite, got {tau}")


def _sample_cells(lab: LabeledHierarchy, k: int, n_points: int) -> int:
    """Cells one sample adds to the largest block a sweep batch holds: a
    level step's child-by-parent distances, or the points' edge gaps."""
    sizes = [len(lab.hierarchy.level(j)) for j in range(k, lab.k_max + 1)]
    return max([a * b for a, b in zip(sizes, sizes[1:])]
               + [n_points * lab.space.n])


def _partial_assign(sampler: OmegaSampler, samples, k: int) -> np.ndarray:
    """Point -> cube index at level k for each sample index in `samples`,
    from one draw of levels k..k_max-1 each: a (len(samples), n) array, the
    levels of all samples linked by one partial-order call per batch. A
    failing batch is rerun one sample at a time, so it raises what the
    first failing sample raises on its own."""
    lab = sampler.labeled
    h = lab.hierarchy
    ks = range(k, lab.k_max)
    try:
        z_levels = [h.level(j + 1)[c]
                    for j, c in zip(ks, sampler._draw_choices(samples, ks))]
        finest = h.level(lab.k_max)
        z_levels.append(np.broadcast_to(finest, (len(samples), finest.size)))
        if len(samples) == 1:   # the kernel reads one sample's rows faster
            z_levels = [z[0] for z in z_levels]
        order = selected_order(lab, z_levels, k_top=k)
        # the finest list indexes the finest level, and each coarser level
        # composes the parent map below it; pieces would sort members that
        # the sweep never reads
        finest = np.atleast_2d(z_levels[-1])
        assign = np.empty((len(finest), lab.space.n), dtype=int)
        np.put_along_axis(assign, finest, np.arange(finest.shape[1]), axis=1)
        for maps in reversed(order.maps):
            assign = np.take_along_axis(np.atleast_2d(maps), assign, axis=1)
        return assign
    except CubeforgeError:
        if len(samples) == 1:
            raise
        return np.concatenate([_partial_assign(sampler, [i], k)
                               for i in samples])


def check_chain_separation(system: CubeSystem, x: int, k: int, tau: float,
                           n_depth: int) -> VerificationReport:
    """Walk the cubes containing x from level k down n_depth levels and check
    that the centers of distinct levels keep their guaranteed distance."""
    space, consts, delta = system.space, system.constants, system.delta
    x = require_id("point", x, 0, space.n, ")")
    n_depth = require_id("depth", n_depth, 0, system.k_max - system.k_min)
    k = require_id("level", k, system.k_min, system.k_max - n_depth)
    _check_tau(tau)
    require_headroom("chain scale", consts)
    require_headroom("chain depth", consts, tau, n_depth)
    assign = system.assign[k - system.k_min]
    gap = float(_edge_gaps(space.dist_row(x), assign, assign[x]))
    if gap >= tau * delta ** k:
        raise PreconditionFail(
            f"point {x} is {gap} from its cube's complement, not within "
            f"{tau * delta ** k}")
    centers, bad = _chain(system, x, k, n_depth, consts.eps_1)
    rep = VerificationReport("chain separation")
    rep.add("chain_separation", not bad, n_depth * (n_depth + 1) // 2, bad,
            details={"eps_1": consts.eps_1, "levels": [k, k + n_depth],
                     "centers": centers})
    return rep


def _chain(system: CubeSystem, x: int, k: int, n_depth: int, eps_1: float):
    """(centers, witnesses) of the chain of x's cubes on levels k + a,
    a = 0..n_depth: each pair a < b of centers at a distance d below
    eps_1 * delta**(k + a) is a witness (k + a, k + b, their centers, d)."""
    centers = [system.cube(j, system.locate(j, x)).center
               for j in range(k, k + n_depth + 1)]
    return centers, [(k + a, k + b, centers[a], centers[b], d)
                     for a, b in itertools.combinations(range(n_depth + 1), 2)
                     if (d := system.space.dist(centers[a], centers[b]))
                     < eps_1 * system.delta ** (k + a)]


def scan_chain_separation(system: CubeSystem) -> VerificationReport:
    """Enumerate every admissible boundary chain of a system and check each.

    A combination (x, k, n_depth) admits a threshold tau exactly when the
    distance from x to the complement of its level-k cube lies strictly
    below tau * delta**k for some tau within the depth headroom, up to
    `SystemConstants.chain_tau(n_depth)`. The scan reads the points' edge
    distances a block a call, checks every admissible
    combination at the largest such tau with the chain kernel of
    `check_chain_separation`, and reports the admissible counts per depth,
    so a caller can see how much of the sweep was vacuous.
    """
    consts, space = system.constants, system.space
    rep = VerificationReport("chain separation scan")
    try:
        require_headroom("chain scale", consts)
    except PreconditionFail:
        rep.add("admissible_chains", True, 0,
                note="scale headroom missing, nothing admissible")
        return rep
    assign = np.stack(system.assign)   # assign[j, x]: x's level-j cube
    step = max(1, space_module.BALL_CELLS // assign.size)
    gaps = np.concatenate([   # gaps[x, j]: x's edge distance on level j
        _edge_gaps(space.dist_rows(xs)[:, None], assign, assign[:, xs].T)
        for xs in np.split(np.arange(space.n), range(step, space.n, step))])
    ks, per_depth, bad, checked = list(system.level_ks()), {}, [], 0
    taus = [[consts.chain_tau(d) * consts.delta ** k if k + d <= system.k_max
             else -math.inf for d in range(len(ks))] for k in ks]
    for x, j, n_depth in np.argwhere(gaps[..., None] < taus).tolist():
        _, witnesses = _chain(system, x, ks[j], n_depth, consts.eps_1)
        checked += n_depth * (n_depth + 1) // 2
        per_depth[n_depth] = per_depth.get(n_depth, 0) + 1
        if witnesses:
            bad.append((x, ks[j], n_depth, witnesses[:2]))
    rep.add("admissible_chains", not bad, checked, bad,
            details={"per_depth": per_depth,
                     "combinations": int(sum(per_depth.values()))})
    return rep
