"""The full family of shifted cube systems and its ball-covering query.

There is one system per pair label (l, m) with l in {0..L} and m in
{1..M}, K = (L+1)*M systems in all, indexed by the lexicographic bijection
t = l*M + m. System t realizes the specific selection rule for (l, m) (or its
pinned variant when a distinguished point is set); a random adjacent draw
shifts that label level by level, and the fixed family is the draw with no
shift. The systems differ at few levels, so one builder makes each
distinct piece once: one parent link per distinct (level, coarse, fine)
triple of center arrays and one assign and grouped-member pair per distinct
level content (cube count and assign), whatever the level's centers. The K
systems then share their center, parent-map, assign and grouped-member
arrays by reference, so none of them is written in place.

find_containing_cubes answers "which system holds a single cube containing
this ball" for every radius of one center's ball sweep at once: a ball of
radius r gets the level k with ratio**(k+2) < r <= ratio**(k+1), found by
searching the powers of ratio over the level window; each distinct level
walks once to the nearest reference point one level finer and reads the
system index off that point's pair label. find_containing_cube is the
one-radius case. In strict mode the returned cube contains the ball and its
diameter is at most C*r, with C the `covering_const` of `constants` at the
family's coarsening: 2, or 3 for the pinned variant, which answers one level
coarser. verify_covering checks containment on its own: ball(x, r) lies in
the returned cube exactly when the edge-distance kernel puts x at least r
from the cube's complement.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import _TOL
from .cubes import CubeSystem, ParentMaps, _edge_gaps, build_cube_system
from .errors import ConfigError, require_id
from .labeling import (LabeledHierarchy, SelectionOutcome, index_to_pair,
                       pair_to_index, require_near, selected_order,
                       specific_pick)
from .report import VerificationReport


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
    covering_const: float = 0.0                  # C
    distinguished: Optional[int] = None
    # randomized families record their per-level draw so queries can route
    # to the system whose shifted label realizes a given fine point
    level_shifts: Optional[dict] = None          # k -> shift in 1..K
    ordinal_shifts: Optional[dict] = None        # k -> 1-based array per index

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

    @property
    def n_systems(self) -> int:   # K
        return self.labeled.n_systems

    @property
    def coarsening(self) -> int:
        """Generations from a query radius's scale ratio**(k+2) up to the
        level of the cube that answers it: 2, and 3 for a pinned family,
        whose query steps one level coarser to the pinned point's cube."""
        return 2 if self.distinguished is None else 3

    def phi_inv(self, t: int):
        return index_to_pair(t, self.labeled.max_children)

    def route_t(self, k: int, beta: int) -> int:
        """System index whose level-k choice lands on fine point beta.

        Undoes the family's recorded shifts; without shifts this is just
        pair_to_index of the fine point's pair label.
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
        return self.systems[require_id("system index", t, 1,
                                       self.n_systems) - 1]

    def cube_members(self, q: CubeQuery) -> np.ndarray:
        return self.system(q.t).cube(q.k, q.index).members

    def to_json(self):
        """The family as a JSON document. Equal levels and parent entries of
        its systems are one shared object (see CubeSystem.to_json), so the
        document is read-only."""
        K = self.n_systems
        shared = {}
        return {
            "K": K,
            "C": self.covering_const,
            "distinguished": self.distinguished,
            "phi": [[*self.phi_inv(t), t] for t in range(1, K + 1)],
            "systems": [s.to_json(shared) for s in self.systems],
        }


def build_adjacent_family(labeled: LabeledHierarchy,
                          distinguished: Optional[int] = None
                          ) -> AdjacentFamily:
    """Build all K = (L+1)*M systems from the labeled hierarchy: the family
    of the adjacent draw with no shift."""
    if distinguished is not None \
            and labeled.hierarchy.distinguished != distinguished:
        raise ConfigError(
            f"family pins {distinguished!r} but the hierarchy distinguishes "
            f"{labeled.hierarchy.distinguished!r}")
    return _build_family(labeled, pinned=distinguished)


def _build_family(labeled: LabeledHierarchy, levels: Optional[dict] = None,
                  pinned: Optional[int] = None) -> AdjacentFamily:
    """The family of an adjacent draw's `levels` (k -> its level entry; None:
    no shift), with the `pinned` point kept at index 0 of every level.

    System t picks at level k by specific_pick for pair label phi^-1(t),
    moved by the level's entry. Each distinct level content is kept once,
    each distinct (level, coarse, fine) triple linked by one
    `selected_order` call, and build_cube_system closes each distinct level
    partition once (see its `closed`). A system is picked, checked and
    linked level by level before the next one, so the first failing
    selection or link raises just as building the systems one by one would.
    """
    size, K = labeled.max_children, labeled.n_systems
    shifts = ordinals = None
    if levels is not None:
        shifts = {k: int(levels[k]["shift"]) for k in labeled.parent_ks()}
        ordinals = {k: np.asarray(levels[k]["ordinals"], dtype=int)
                    for k in labeled.parent_ks()
                    if "ordinals" in levels[k]} or None
    family = AdjacentFamily(
        labeled=labeled, distinguished=pinned,
        level_shifts=shifts, ordinal_shifts=ordinals)
    family.covering_const = labeled.selected_constants.covering_const(
        family.coarsening)
    seen, links, closed = {}, {}, {}
    for t in range(1, K + 1):
        chosen = []
        for k in labeled.parent_ks():
            entry = None if levels is None else levels[k]
            chosen.append(specific_pick(labeled, k, index_to_pair(t, size),
                                        entry, pinned))
            require_near(labeled, k, chosen[-1] < 0)
        z = [seen.setdefault((j, lv.tobytes()), lv) for j, lv in enumerate(
            SelectionOutcome(labeled, {}, chosen).new_levels())]
        parts = []
        # a one-level system still makes one call, for its strict checks
        for j in range(max(len(z) - 1, 1)):
            key = (j, *map(id, z[j:j + 2]))
            if key not in links:
                links[key] = selected_order(labeled, z[j:j + 2],
                                            k_top=labeled.k_min + j)
            parts.append(links[key])
        order = ParentMaps(k_top=labeled.k_min, constants=parts[0].constants,
                           mode=parts[0].mode,
                           maps=[m for p in parts for m in p.maps],
                           tight=[x for p in parts for x in p.tight])
        family.systems.append(
            build_cube_system(labeled.space, z, order, closed))
    return family


@dataclass
class CubeQueries:
    """One center's answers: per radius j, its query is cubes[slot[j]], and
    members[slot[j]] is that cube's member list."""

    cubes: list
    slot: np.ndarray
    members: list

    def query(self, j: int) -> CubeQuery:
        return self.cubes[self.slot[j]]


def find_containing_cubes(family: AdjacentFamily, x: int,
                          radii) -> CubeQueries:
    """Answer ball(x, radii[j]) for every j at once; see the module
    docstring.

    Radii outside the level window never error: too-coarse queries clamp to
    the full top cube ("clamped_coarse"), too-fine queries return the
    singleton cube of x itself ("underflow").
    """
    x = require_id("point", x, 0, family.space.n, ")")
    radii = np.asarray(radii, dtype=float)
    bad = np.flatnonzero(~(radii > 0))
    if bad.size:
        raise ConfigError(f"query radius must be positive, got {radii[bad[0]]}")
    # the coarsest radius level whose answer stays inside the window
    floor_k = family.k_min + family.coarsening - 2
    levels = _levels_for_radii(family.delta, radii, floor_k,
                               max(family.k_max - 1, floor_k - 1))
    distinct, slot = np.unique(levels, return_inverse=True)
    slot = slot.ravel()
    row = family.space.dist_row(x)
    cubes = [_route(family, x, row, int(k), floor_k) for k in distinct]
    return CubeQueries(cubes=cubes, slot=slot,
                       members=[family.cube_members(q) for q in cubes])


def find_containing_cube(family: AdjacentFamily, x: int, r: float) -> CubeQuery:
    """Locate (t, cube) whose members contain ball(x, r): the one-radius
    case of find_containing_cubes."""
    return find_containing_cubes(family, x, [r]).query(0)


def _route(family: AdjacentFamily, x: int, row, k: int,
           floor_k: int) -> CubeQuery:
    """The query answer for level k, read off x's distance row."""
    if k < floor_k:
        return CubeQuery(t=1, k=family.k_min, index=0, flag="clamped_coarse")
    if k > family.k_max - 1:
        t = 1
        return CubeQuery(t=t, k=family.k_max,
                         index=family.system(t).locate(family.k_max, x),
                         flag="underflow")
    # nearest fine reference point
    beta = int(np.argmin(row[family.labeled.hierarchy.level(k + 1)]))
    t = family.route_t(k, beta)
    alpha = family.labeled.order.parent_of(k, beta)
    if family.distinguished is None:
        return CubeQuery(t=t, k=k, index=alpha, flag="ok")
    up = family.system(t).order.parent_of(k - 1, alpha)
    return CubeQuery(t=t, k=k - 1, index=up, flag="ok")


def _levels_for_radii(delta: float, radii, k_lo: int, k_hi: int) -> np.ndarray:
    """The generation k with delta**(k+2) < r <= delta**(k+1) of every
    radius, clipped to [k_lo - 1, k_hi + 1] (k_hi >= k_lo - 1): the count of
    window powers delta**j >= r, each power a Python float delta ** j."""
    powers = np.array([delta ** j for j in range(k_hi + 2, k_lo, -1)])
    return k_lo - 1 + powers.size - np.searchsorted(powers, radii, side="left")


def verify_covering(family: AdjacentFamily) -> VerificationReport:
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
    diam_of = {}  # member list bytes -> its diameter; systems share cubes
    for x, _, _, _, radii in space.ball_sweep():
        qs = find_containing_cubes(family, x, radii)
        diam = np.empty(len(qs.members))
        inside = np.zeros((len(qs.members), space.n), dtype=bool)
        for i, m in enumerate(qs.members):
            key = m.tobytes()
            if key not in diam_of:
                diam_of[key] = float(space.dist_rows(m, m).max(initial=0.0))
            diam[i] = diam_of[key]
            inside[i, m] = True
        gap = _edge_gaps(space.dist_row(x), inside, True)[qs.slot]
        diam = diam[qs.slot]
        n_queries += radii.size
        for j in np.flatnonzero(radii > gap):
            contain_bad.append((x, float(radii[j]), qs.query(j).to_json()))
        for j in np.flatnonzero(diam > C * radii * (1 + _TOL)):
            diam_bad.append((x, float(radii[j]), float(diam[j]), C * radii[j]))
        worst_ratio = max(worst_ratio, float((diam / radii).max()))
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
                center = sys_t.cube(k, 0).center
                if center != family.distinguished:
                    pin_bad.append((t, k, center))
        rep.add("pinned_center", not pin_bad, pin_n, pin_bad,
                note="the pinned point heads every level of every system")
    return rep
