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

A level's per-center coordinates are drawn in one bounded-integer call over
the whole level, which consumes the stream exactly as one call per center in
index order. Adjacent draws realize their systems through the labeling
kernel `pick_children` (see `OmegaSampler.shifted_pick`), and every
selected-point order comes from `selected_order`.

Every selected point is guaranteed a probability of at least
tau_0 = 1/((L+1)*M) of being chosen, which drives the boundary-zone decay
estimate: the chance that a point sits within tau * ratio**k of its level-k
cube's complement is at most C_2 * tau**eta with eta = log(1-tau_0)/log(ratio)
and C_2 = 4*tri**2/(inner_const*ratio).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjacent import AdjacentFamily, index_to_pair
from .cubes import CubeSystem, build_cube_system
from .errors import ConfigError, ModeViolation, NotAChild, PreconditionFail
from .labeling import (
    LabeledHierarchy,
    SelectionOutcome,
    aux_sep_const,
    require_near,
    selected_order,
)
from .report import VerificationReport

_TOL = 1e-12
WILSON_Z = 1.6448536269514722  # one-sided 95% normal quantile
SINGLE_PRODUCT_LIMIT = 96.0    # strict headroom on tri**6 * ratio
FAMILY_PRODUCT_LIMIT = 144.0   # strict headroom on tri**8 * ratio
VARIANTS = ("single", "adjacent", "adjacent_refined")


@dataclass
class OmegaSampler:
    labeled: LabeledHierarchy
    variant: str = "single"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, "
                              f"got {self.variant!r}")
        tri = self.labeled.space.profile.tri_const
        delta = self.labeled.hierarchy.delta
        if self.variant == "single":
            product = SINGLE_PRODUCT_LIMIT * tri ** 6 * delta
        else:
            product = FAMILY_PRODUCT_LIMIT * tri ** 8 * delta
        if product > 1.0 + _TOL:
            raise ModeViolation(product, 1.0,
                                f"{self.variant} sampling headroom")

    @property
    def n_systems(self) -> int:
        return (self.labeled.max_label + 1) * self.labeled.max_children

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
        tri = self.labeled.space.profile.tri_const
        inner = aux_sep_const(tri) / (3.0 * tri ** 2)
        return 4.0 * tri ** 2 / (inner * self.labeled.hierarchy.delta)

    def to_json(self):
        return {"variant": self.variant, "seed": self.seed,
                "tau_0": self.tau_0, "eta": self.decay_exp,
                "C_2": self.boundary_const}

    # -- raw coordinate draws -------------------------------------------------

    def _rng(self, sample_index: int, k: int):
        ss = np.random.SeedSequence(
            self.seed, spawn_key=(sample_index, k - self.labeled.k_min))
        return np.random.default_rng(ss)

    def draw_level(self, sample_index: int, k: int) -> dict:
        """One level's coordinate; streams are independent across levels.
        The centers of the level draw together (see the module docstring)."""
        lab = self.labeled
        j = k - lab.k_min
        rng = self._rng(sample_index, k)
        kids, start = lab.children[j]
        if self.variant == "single":
            master = int(rng.integers(0, lab.max_label + 1))
            match = lab.primary[j] == master
            near, near_start = lab.near_pool[j]
            # a center draws from all its children or from its near pool;
            # the near pool is empty exactly when there is no near child
            pool = np.where(match, np.diff(start), np.diff(near_start))
            require_near(lab, k, pool == 0)
            offset = rng.integers(0, pool)
            choice = np.empty(len(match), dtype=int)
            choice[match] = kids[start[:-1][match] + offset[match]]
            choice[~match] = near[near_start[:-1][~match] + offset[~match]]
            return {"master": master, "choice": choice}
        entry = {"shift": int(rng.integers(1, self.n_systems + 1))}
        if self.variant == "adjacent_refined":
            sizes = np.diff(start)
            require_near(lab, k, sizes == 0)
            entry["ordinals"] = rng.integers(1, sizes + 1)
        return entry

    def draw(self, sample_index: int = 0) -> dict:
        return {"variant": self.variant, "sample": sample_index,
                "levels": {k: self.draw_level(sample_index, k)
                           for k in self.labeled.parent_ks()}}

    def resample_level(self, omega: dict, k: int, sample_index: int) -> dict:
        """Copy of omega with only level k's coordinate redrawn."""
        levels = dict(omega["levels"])
        levels[k] = self.draw_level(sample_index, k)
        return {**omega, "levels": levels}

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
        lab = self.labeled
        shifts = {k: int(omega["levels"][k]["shift"]) for k in lab.parent_ks()}
        ordinals = None
        if omega["variant"] == "adjacent_refined":
            ordinals = {k: np.asarray(omega["levels"][k]["ordinals"], dtype=int)
                        for k in lab.parent_ks()}
        tri = lab.space.profile.tri_const
        family = AdjacentFamily(
            labeled=lab, n_systems=self.n_systems,
            covering_const=8.0 * tri ** 3 / lab.hierarchy.delta ** 2,
            level_shifts=shifts, ordinal_shifts=ordinals)
        for t in range(1, self.n_systems + 1):
            chosen = []
            for k in lab.parent_ks():
                chosen.append(self.shifted_pick(k, t, omega["levels"][k]))
                require_near(lab, k, chosen[-1] < 0)
            outcome = SelectionOutcome(
                labeled=lab,
                rule={"kind": "sampled_adjacent", "t": t, "seed": self.seed,
                      "sample": omega["sample"]},
                chosen=chosen)
            family.systems.append(realize_system(lab, outcome))
        return family

    def shifted_pick(self, k: int, t: int, entry: dict) -> np.ndarray:
        """Level-k picks of system t under one adjacent draw of level k: its
        shift moves the pair label, its ordinals (if any) the sibling."""
        pi = (t + int(entry["shift"]) - 1) % self.n_systems + 1
        l, m = index_to_pair(pi, self.labeled.max_children)
        return self.labeled.pick_children(k, l, m, entry.get("ordinals"))


def realize_system(labeled: LabeledHierarchy,
                   outcome: SelectionOutcome) -> CubeSystem:
    """Close a selection outcome into a cube system over the chosen centers."""
    z_levels = outcome.new_levels()
    return build_cube_system(labeled.space, z_levels,
                             selected_order(labeled, z_levels))


def sample_outcome(sampler: OmegaSampler, sample_index: int = 0
                   ) -> SelectionOutcome:
    return sampler.realize_outcome(sampler.draw(sample_index))


def sample_system(sampler: OmegaSampler, sample_index: int = 0) -> CubeSystem:
    """Draw one single-variant selection and build its cube system."""
    if sampler.variant != "single":
        raise ConfigError("sample_system needs a single-variant sampler")
    return realize_system(sampler.labeled, sample_outcome(sampler, sample_index))


def sample_adjacent_family(sampler: OmegaSampler, sample_index: int = 0
                           ) -> AdjacentFamily:
    """Draw one shifted-label family (adjacent or adjacent_refined)."""
    if sampler.variant == "single":
        raise ConfigError("sample_adjacent_family needs an adjacent-variant "
                          "sampler")
    return sampler.realize_family(sampler.draw(sample_index))


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
    adjacent variants the event is about system t of the realized family.
    """
    lab = sampler.labeled
    if n_samples < 1000:
        raise PreconditionFail(f"need at least 1000 samples, got {n_samples}")
    if beta not in lab.children_of(k, alpha):
        raise NotAChild(k, alpha, beta)
    hits = 0
    for i in range(n_samples):
        entry = sampler.draw_level(i, k)
        if sampler.variant == "single":
            pick = entry["choice"]
        else:
            pick = sampler.shifted_pick(k, t, entry)
            require_near(lab, k, (pick < 0) & (np.arange(pick.size) == alpha))
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
    """Chance that x lands within tau * ratio**k of its level-k cube's edge.

    Realizes only levels k and finer per sample (coarser coordinates cannot
    move the level-k partition). Passes when the 95% Wilson upper confidence
    bound stays under C_2 * tau**eta.
    """
    lab = sampler.labeled
    if sampler.variant != "single":
        raise ConfigError("boundary estimation uses the single variant")
    if lab.hierarchy.mode != "strict":
        raise PreconditionFail("boundary decay needs a strict-mode hierarchy")
    delta = lab.hierarchy.delta
    if tau <= 0:
        raise PreconditionFail(f"tau must be positive, got {tau}")
    if n_samples < 1000:
        raise PreconditionFail(f"need at least 1000 samples, got {n_samples}")
    if not lab.k_min <= k <= lab.k_max:
        raise PreconditionFail(f"level {k} outside [{lab.k_min}, {lab.k_max}]")
    space = lab.space
    if not 0 <= x < space.n:
        raise PreconditionFail(f"point {x} outside [0, {space.n})")
    eps = tau * delta ** k
    row = space.dist_row(x)
    hits = 0
    for i in range(n_samples):
        assign = _partial_assign(sampler, i, k)
        outside = assign != assign[x]
        if outside.any():
            hits += float(row[outside].min()) <= eps
    p_hat = hits / n_samples
    upper = wilson_upper(hits, n_samples)
    bound = sampler.boundary_const * tau ** sampler.decay_exp
    return BoundaryEstimate(x=x, k=k, tau=tau, n_samples=n_samples, hits=hits,
                            p_hat=p_hat, wilson_upper=upper, bound=bound,
                            passed=upper <= bound)


def _partial_assign(sampler: OmegaSampler, sample_index: int, k: int
                    ) -> np.ndarray:
    """Point -> cube index at level k for one draw of levels k..k_max-1."""
    lab = sampler.labeled
    h = lab.hierarchy
    z_levels = []
    for j in range(k, lab.k_max):
        entry = sampler.draw_level(sample_index, j)
        z_levels.append(h.level(j + 1)[entry["choice"]])
    z_levels.append(h.level(lab.k_max).copy())
    order = selected_order(lab, z_levels, k_top=k)
    finest = z_levels[-1]
    assign = np.empty(lab.space.n, dtype=int)
    assign[finest] = np.arange(len(finest))
    for j in range(len(z_levels) - 2, -1, -1):
        assign = order.maps[j][assign]
    return assign


def check_chain_separation(system: CubeSystem, x: int, k: int, tau: float,
                           n_depth: int) -> VerificationReport:
    """Walk the cubes containing x from level k down n_depth levels and check
    that the centers of distinct levels keep their guaranteed distance."""
    space = system.space
    tri = system.constants.tri_const
    delta = system.delta
    sep = system.constants.sep_const
    cover = system.constants.cover_const
    if 18.0 * tri ** 5 * cover * delta > sep * (1 + _TOL):
        raise PreconditionFail(
            "scale headroom 18*tri**5*cover_const*ratio <= sep_const required")
    if 12.0 * tri ** 4 * tau > sep * delta ** n_depth * (1 + _TOL):
        raise PreconditionFail(
            "depth/threshold headroom 12*tri**4*tau <= sep_const*ratio**depth "
            "required")
    if not system.k_min <= k <= system.k_max - n_depth:
        raise PreconditionFail(
            f"chain levels [{k}, {k + n_depth}] outside "
            f"[{system.k_min}, {system.k_max}]")
    row = space.dist_row(x)
    outside = system.assign[k - system.k_min] != system.locate(k, x)
    gap = float(row[outside].min()) if outside.any() else math.inf
    if gap >= tau * delta ** k:
        raise PreconditionFail(
            f"point {x} is {gap} from its cube's complement, not within "
            f"{tau * delta ** k}")
    eps_1 = sep / (12.0 * tri ** 4)
    centers = [system.cube(j, system.locate(j, x)).center
               for j in range(k, k + n_depth + 1)]
    bad, checked = [], 0
    for a in range(len(centers)):
        for b in range(a + 1, len(centers)):
            checked += 1
            d = space.dist(centers[a], centers[b])
            lvl = k + a
            if d < eps_1 * delta ** lvl:
                bad.append((lvl, k + b, centers[a], centers[b], d))
    rep = VerificationReport("chain separation")
    rep.add("chain_separation", not bad, checked, bad,
            details={"eps_1": eps_1, "levels": [k, k + n_depth],
                     "centers": [int(c) for c in centers]})
    return rep


def scan_chain_separation(system: CubeSystem) -> VerificationReport:
    """Enumerate every admissible boundary chain of a system and check each.

    A combination (x, k, n_depth) admits a threshold tau exactly when the
    distance from x to the complement of its level-k cube lies strictly
    below tau * delta**k for some tau within the depth headroom
    12 * tri**4 * tau <= sep_const * delta**n_depth. The scan runs the
    separation check at the largest such tau for every admissible
    combination and reports the admissible counts per depth, so a caller
    can see how much of the sweep was vacuous.
    """
    consts = system.constants
    tri, sep, cover = consts.tri_const, consts.sep_const, consts.cover_const
    delta = consts.delta
    rep = VerificationReport("chain separation scan")
    if 18.0 * tri ** 5 * cover * delta > sep * (1 + _TOL):
        rep.add("admissible_chains", True, 0,
                note="scale headroom missing, nothing admissible")
        return rep
    space = system.space
    per_depth: dict = {}
    bad, checked = [], 0
    for x in space.points():
        row = space.dist_row(x)
        for k in system.level_ks():
            assign = system.assign[k - system.k_min]
            outside = assign != assign[x]
            if not outside.any():
                continue
            gap = float(row[outside].min())
            for n_depth in range(0, system.k_max - k + 1):
                tau = sep * delta ** n_depth / (12.0 * tri ** 4)
                if gap >= tau * delta ** k:
                    break
                sub = check_chain_separation(system, int(x), k, tau, n_depth)
                chk = sub.check("chain_separation")
                checked += chk.checked
                per_depth[n_depth] = per_depth.get(n_depth, 0) + 1
                if not chk.passed:
                    bad.append((int(x), k, n_depth, chk.witnesses[:2]))
    rep.add("admissible_chains", not bad, checked, bad,
            details={"per_depth": per_depth,
                     "combinations": int(sum(per_depth.values()))})
    return rep
