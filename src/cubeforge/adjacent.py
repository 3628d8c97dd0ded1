"""The full family of shifted cube systems and its ball-covering query.

One system is built per pair label (l, m) with l in {0..L} and m in {1..M},
K = (L+1)*M systems in all, indexed by the lexicographic bijection
t = l*M + m. System t realizes the specific selection rule for (l, m) (or its
pinned variant when a distinguished point is set).

find_containing_cube answers "which system holds a single cube containing
this ball": for a query ball of radius r it picks the level k with
ratio**(k+2) < r <= ratio**(k+1), walks to the nearest reference point one
level finer, and reads the system index off that point's pair label. In
strict mode the returned cube contains the ball and its diameter is at most
C*r with C = 8*tri**3/ratio**2 (pinned variant: one level coarser and
C = 8*tri**3/ratio**3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cubes import CubeSystem, build_cube_system
from .errors import ConfigError
from .labeling import LabeledHierarchy, select_points, selected_order
from .report import VerificationReport

_TOL = 1e-12


def pair_to_index(l: int, m: int, max_children: int) -> int:
    """Lexicographic pair label -> system index in {1..K}."""
    return l * max_children + m


def index_to_pair(t: int, max_children: int):
    return (t - 1) // max_children, (t - 1) % max_children + 1


@dataclass
class CubeQuery:
    t: int
    k: int
    index: int
    flag: str  # "ok" | "clamped_coarse" | "underflow"

    def to_json(self):
        return {"t": self.t, "k": self.k, "index": self.index,
                "flag": self.flag}


@dataclass
class AdjacentFamily:
    labeled: LabeledHierarchy
    systems: list = field(default_factory=list)  # index t-1
    n_systems: int = 1                           # K
    covering_const: float = 0.0                  # C
    distinguished: Optional[int] = None
    # randomized families record their per-level draw so queries can route
    # to the system whose shifted label realizes a given fine point
    level_shifts: Optional[dict] = None          # k -> shift in 1..K
    ordinal_shifts: Optional[dict] = None        # k -> 1-based array per index
    _diam_cache: dict = field(default_factory=dict)

    @property
    def space(self):
        return self.labeled.space

    @property
    def k_min(self):
        return self.labeled.k_min

    @property
    def k_max(self):
        return self.labeled.k_max

    @property
    def delta(self):
        return self.labeled.hierarchy.delta

    def phi(self, l: int, m: int) -> int:
        return pair_to_index(l, m, self.labeled.max_children)

    def phi_inv(self, t: int):
        return index_to_pair(t, self.labeled.max_children)

    def route_t(self, k: int, beta: int) -> int:
        """System index whose level-k choice lands on fine point beta.

        Undoes the family's recorded shifts; without shifts this is just
        phi of the fine point's pair label.
        """
        l, m = self.labeled.label2(k + 1, beta)
        if self.ordinal_shifts is not None:
            alpha = self.labeled.order.parent_of(k, beta)
            n_kids = len(self.labeled.children_of(k, alpha))
            m = (m - int(self.ordinal_shifts[k][alpha]) - 1) % n_kids + 1
        t = pair_to_index(l, m, self.labeled.max_children)
        if self.level_shifts is not None:
            t = (t - int(self.level_shifts[k]) - 1) % self.n_systems + 1
        return t

    def system(self, t: int) -> CubeSystem:
        if not 1 <= t <= self.n_systems:
            raise ConfigError(f"system index {t} outside 1..{self.n_systems}")
        return self.systems[t - 1]

    def cube_members(self, q: CubeQuery) -> np.ndarray:
        return self.system(q.t).cube(q.k, q.index).members

    def cube_diam(self, t: int, k: int, index: int) -> float:
        key = (t, k, index)
        if key not in self._diam_cache:
            members = self.system(t).cube(k, index).members
            best = 0.0
            for x in members:
                best = max(best, float(self.space.dist_row(int(x))[members].max()))
            self._diam_cache[key] = best
        return self._diam_cache[key]

    def to_json(self):
        K = self.n_systems
        return {
            "K": K,
            "C": self.covering_const,
            "distinguished": self.distinguished,
            "phi": [[*self.phi_inv(t), t] for t in range(1, K + 1)],
            "systems": [s.to_json() for s in self.systems],
        }


def build_adjacent_family(labeled: LabeledHierarchy,
                          distinguished: Optional[int] = None,
                          rules: Optional[dict] = None) -> AdjacentFamily:
    """Build all K = (L+1)*M systems from the labeled hierarchy.

    `rules` optionally overrides the per-system selection rule (used by the
    randomized builders); keys are system indices t, values rule dicts.
    """
    if distinguished is not None \
            and labeled.hierarchy.distinguished != distinguished:
        raise ConfigError(
            f"family pins {distinguished!r} but the hierarchy distinguishes "
            f"{labeled.hierarchy.distinguished!r}")
    tri = labeled.space.profile.tri_const
    delta = labeled.hierarchy.delta
    K = (labeled.max_label + 1) * labeled.max_children
    exponent = 3 if distinguished is not None else 2
    family = AdjacentFamily(labeled=labeled, n_systems=K,
                            covering_const=8.0 * tri ** 3 / delta ** exponent,
                            distinguished=distinguished)
    for t in range(1, K + 1):
        if rules is not None and t in rules:
            rule = rules[t]
        else:
            l, m = index_to_pair(t, labeled.max_children)
            if distinguished is None:
                rule = {"kind": "specific", "label": [l, m]}
            else:
                rule = {"kind": "specific_distinguished", "label": [l, m],
                        "distinguished": distinguished}
        z_levels = select_points(labeled, rule).new_levels()
        family.systems.append(build_cube_system(
            labeled.space, z_levels, selected_order(labeled, z_levels)))
    return family


def find_containing_cube(family: AdjacentFamily, x: int, r: float) -> CubeQuery:
    """Locate (t, cube) whose members contain ball(x, r); see module docstring.

    Radii outside the level window never error: too-coarse queries clamp to
    the full top cube ("clamped_coarse"), too-fine queries return the
    singleton cube of x itself ("underflow").
    """
    if r <= 0:
        raise ConfigError(f"query radius must be positive, got {r}")
    h = family.labeled.hierarchy
    delta = family.delta
    k = _generation_for_radius(delta, r)
    pinned = family.distinguished is not None
    # the pinned variant answers one generation coarser
    floor_k = family.k_min + 1 if pinned else family.k_min
    if k < floor_k:
        return CubeQuery(t=1, k=family.k_min, index=0, flag="clamped_coarse")
    if k > family.k_max - 1:
        t = 1
        return CubeQuery(t=t, k=family.k_max,
                         index=family.system(t).locate(family.k_max, x),
                         flag="underflow")
    fine = h.level(k + 1)
    row = family.space.dist_row(x)[fine]
    beta = int(np.argmin(row))          # nearest fine reference point
    t = family.route_t(k, beta)
    alpha = family.labeled.order.parent_of(k, beta)
    if not pinned:
        return CubeQuery(t=t, k=k, index=alpha, flag="ok")
    up = family.system(t).order.parent_of(k - 1, alpha)
    return CubeQuery(t=t, k=k - 1, index=up, flag="ok")


def _generation_for_radius(delta: float, r: float) -> int:
    """The k with delta**(k+2) < r <= delta**(k+1), float-safe."""
    j = math.floor(math.log(r) / math.log(delta))
    while delta ** j < r:
        j -= 1
    while delta ** (j + 1) >= r:
        j += 1
    return j - 1


def verify_covering(family: AdjacentFamily, centers=None) -> VerificationReport:
    """Sweep realized radii per center and check both query guarantees.

    Also checks that every fine reference point is realized as a chosen
    center in the system its pair label names (plain families), or that the
    pinned point heads every level of every system (pinned families).
    """
    space = family.space
    C = family.covering_const
    rep = VerificationReport("adjacent covering")
    contain_bad, diam_bad, n_queries = [], [], 0
    worst_ratio = 0.0
    for x, order, _, ends, radii in space.ball_sweep(centers):
        for r, end in zip(radii, ends):
            n_queries += 1
            q = find_containing_cube(family, x, float(r))
            members = family.cube_members(q)
            if not np.isin(order[:end], members).all():
                contain_bad.append((x, float(r), q.to_json()))
            diam = family.cube_diam(q.t, q.k, q.index)
            if diam > C * r * (1 + _TOL):
                diam_bad.append((x, float(r), diam, C * r))
            worst_ratio = max(worst_ratio, diam / r)
    rep.add("ball_containment", not contain_bad, n_queries, contain_bad)
    rep.add("diameter_bound", not diam_bad, n_queries, diam_bad,
            details={"worst_ratio": worst_ratio, "C": C})

    if family.distinguished is None:
        cover_bad, cover_n = [], 0
        for k in range(family.k_min + 1, family.k_max + 1):
            level = family.labeled.hierarchy.level(k)
            for beta in range(len(level)):
                cover_n += 1
                t = family.route_t(k - 1, beta)
                alpha = family.labeled.order.parent_of(k - 1, beta)
                center = family.system(t).cube(k - 1, alpha).center
                if center != int(level[beta]):
                    cover_bad.append((k, beta, t, alpha, center))
        rep.add("center_coverage", not cover_bad, cover_n, cover_bad,
                note="every fine point is some system's chosen center")
    else:
        pin_bad, pin_n = [], 0
        for t in range(1, family.n_systems + 1):
            sys_t = family.system(t)
            for k in sys_t.level_ks():
                pin_n += 1
                if sys_t.cube(k, 0).center != family.distinguished:
                    pin_bad.append((t, k, sys_t.cube(k, 0).center))
        rep.add("pinned_center", not pin_bad, pin_n, pin_bad,
                note="the pinned point heads every level of every system")
    return rep
