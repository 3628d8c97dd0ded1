"""Hierarchical cube partitions built over per-level center families.

Construction runs in two stages. build_partial_order links every center on
level k+1 to a parent on level k: a uniquely-close parent when one exists
within sep_const * ratio**k / (2 * tri_const) (a "tight" link; two such
candidates would contradict level separation and raise), otherwise the
first-listed center within cover_const * ratio**k. build_cube_system then
closes the order downward: the cube of a center is the set of finest-level
points whose parent chain passes through it, which partitions the space at
every level by construction.

A system holds each level as arrays only: its centers level_points[j], its
point -> cube map assign[j] and its members[j] = (flat, start), the point
ids grouped by cube with the group starts and a final end, so cube i is
flat[start[i]:start[i + 1]] around the center level_points[j][i]. Cube
values are built on demand by cube() and cubes_at(). Systems built with one
shared `closed` dict store each distinct level content, its cube count and
assign array, once: two levels that partition the space alike share their
assign and member arrays even when their centers differ. So no array of a
system is written in place.

The checker re-derives the promised geometry from the realized member sets:
partition, nesting across levels, the inner/outer ball sandwich with
inner_const = sep_const / (3 * tri_const^2) and
outer_const = 2 * tri_const * cover_const, containment of descendant outer
balls, and proximity of descendant centers. Nesting and the descendant
checks run over every pair of levels, not only consecutive ones. Each
check's name, its place in the report and its `checked` count are part of
the report contract: run reports and benchmark references digest them.
Every check is batched over whole levels with numpy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (ConfigError, ModeViolation, NoParent, PreconditionFail,
                     TightAmbiguity)
from .report import VerificationReport
from .space import QuasiMetricSpace

_TOL = 1e-12


@dataclass
class SystemConstants:
    delta: float
    tri_const: float
    sep_const: float
    cover_const: float

    @property
    def inner_const(self) -> float:
        return self.sep_const / (3.0 * self.tri_const ** 2)

    @property
    def outer_const(self) -> float:
        return 2.0 * self.tri_const * self.cover_const

    def to_json(self):
        return {"c0": self.sep_const, "C0": self.cover_const,
                "c1": self.inner_const, "C1": self.outer_const}


@dataclass
class ParentMaps:
    """Parent links between consecutive levels of center lists."""

    k_top: int
    constants: SystemConstants
    mode: str
    maps: list = field(default_factory=list)   # maps[j][i] = parent index
    tight: list = field(default_factory=list)  # tight[j][i] = unique-close link

    def parent_of(self, k: int, child_index: int) -> int:
        return int(self.maps[k - self.k_top][child_index])


@dataclass(frozen=True)
class Cube:
    """One cube, read off its system's level arrays: `members` is a view of
    the level's grouped member array, shared with every system that holds
    the level."""

    center: int
    members: np.ndarray


@dataclass
class CubeSystem:
    space: QuasiMetricSpace
    k_min: int
    k_max: int
    constants: SystemConstants
    mode: str
    level_points: list = field(default_factory=list)  # arrays of center ids
    order: Optional[ParentMaps] = None
    # members[j] = (flat, start): cube i of level k_min + j has the members
    # flat[start[i]:start[i + 1]] and the center level_points[j][i]
    members: list = field(default_factory=list)
    assign: list = field(default_factory=list)        # arrays point -> cube index

    @property
    def delta(self) -> float:
        return self.constants.delta

    def level_ks(self):
        return range(self.k_min, self.k_max + 1)

    def _level_index(self, k: int) -> int:
        """Position j of level k in the per-level lists."""
        if not self.k_min <= k <= self.k_max:
            raise PreconditionFail(
                f"level {k} outside [{self.k_min}, {self.k_max}]")
        return k - self.k_min

    def cubes_at(self, k: int) -> list:
        return [self.cube(k, i)
                for i in range(len(self.level_points[self._level_index(k)]))]

    def cube(self, k: int, index: int) -> Cube:
        j = self._level_index(k)
        size = len(self.level_points[j])
        if not 0 <= index < size:
            raise PreconditionFail(f"cube {index} outside [0, {size})")
        flat, start = self.members[j]
        return Cube(int(self.level_points[j][index]),
                    flat[start[index]:start[index + 1]])

    def locate(self, k: int, point: int) -> int:
        """Index of the cube containing `point` on level k."""
        j = self._level_index(k)
        if not 0 <= point < self.space.n:
            raise PreconditionFail(
                f"point {point} outside [0, {self.space.n})")
        return int(self.assign[j][point])

    def to_json(self):
        levels = []
        for k, pts, (flat, start) in zip(self.level_ks(), self.level_points,
                                          self.members):
            flat, start = flat.tolist(), start.tolist()
            levels.append({"k": k, "cubes": [
                {"center": c, "members": flat[s:e]}
                for c, s, e in zip(pts.tolist(), start, start[1:])]})
        return {
            "delta": self.delta,
            "mode": self.mode,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "constants": self.constants.to_json(),
            "levels": levels,
            "parents": [{"k": self.k_min + j, "map": m.tolist(), "tight": t.tolist()}
                        for j, (m, t) in enumerate(zip(self.order.maps, self.order.tight))]
                       if self.order else [],
        }

    @classmethod
    def from_json(cls, d, space):
        """Read a system back; a point listed in several cubes of one level
        is assigned to the last of them."""
        consts = SystemConstants(delta=float(d["delta"]),
                                 tri_const=space.profile.tri_const,
                                 sep_const=float(d["constants"]["c0"]),
                                 cover_const=float(d["constants"]["C0"]))
        k_min, k_max = int(d["k_min"]), int(d["k_max"])
        order = ParentMaps(k_top=k_min, constants=consts, mode=d["mode"],
                           maps=[np.asarray(p["map"], dtype=int) for p in d["parents"]],
                           tight=[np.asarray(p["tight"], dtype=bool) for p in d["parents"]])
        level_points, members, assign = [], [], []
        for k, lv in enumerate((lv["cubes"] for lv in d["levels"]), k_min):
            size = np.array([len(c["members"]) for c in lv], dtype=int)
            cube_of = np.repeat(np.arange(size.size), size)
            pts = _point_ids([c["center"] for c in lv], space.n, k,
                             np.arange(size.size), "center")
            flat = _point_ids([p for c in lv for p in c["members"]], space.n,
                              k, cube_of, "member")
            a = np.full(space.n, -1, dtype=int)
            np.maximum.at(a, flat, cube_of)
            level_points.append(pts)
            members.append((flat, np.concatenate(([0], np.cumsum(size)))))
            assign.append(a)
        return cls(space=space, k_min=k_min, k_max=k_max, constants=consts,
                   mode=d["mode"], level_points=level_points, order=order,
                   members=members, assign=assign)


def _point_ids(ids, n: int, k: int, owner, what: str) -> np.ndarray:
    """Level k's ids as an int array; ConfigError naming the cube owner[i]
    of the first id that is not an integer in [0, n)."""
    raw = np.array(ids)
    whole = raw == np.floor(raw)
    bad = np.flatnonzero(~whole | (raw < 0) | (raw >= n))
    if bad.size:
        i = bad[0]
        why = f"outside [0, {n})" if whole[i] else "is not an integer"
        raise ConfigError(
            f"level {k}, cube {owner[i]}: {what} id {raw[i]} {why}")
    return raw.astype(int)


def build_partial_order(space: QuasiMetricSpace, level_points, delta: float,
                        sep_const: float, cover_const: float, tri_const: float,
                        k_top: int, mode: str = "strict") -> ParentMaps:
    """Link each center to its parent one level up; see the module docstring
    for the tight/loose rule. Strict mode insists on the scale headroom
    12 * tri_const^3 * cover_const * delta <= sep_const."""
    if mode == "strict":
        product = 12.0 * tri_const ** 3 * cover_const * delta
        if product > sep_const * (1 + _TOL):
            raise ModeViolation(product, sep_const, "parent-order scale headroom")
    consts = SystemConstants(delta, tri_const, sep_const, cover_const)
    out = ParentMaps(k_top=k_top, constants=consts, mode=mode)
    for j in range(len(level_points) - 1):
        k = k_top + j
        parents = np.asarray(level_points[j], dtype=int)
        children = np.asarray(level_points[j + 1], dtype=int)
        tight_thr = sep_const * delta ** k / (2.0 * tri_const)
        loose_thr = cover_const * delta ** k
        dists = space.dist_rows(children, parents)
        near = dists < tight_thr
        counts = near.sum(axis=1)
        if (counts > 1).any():
            i = int(np.argmax(counts > 1))
            cands = parents[near[i]].tolist()
            raise TightAmbiguity(k, i, int(children[i]), cands)
        in_range = dists < loose_thr
        if (~in_range.any(axis=1) & (counts == 0)).any():
            i = int(np.argmax(~in_range.any(axis=1) & (counts == 0)))
            raise NoParent(k, i, int(children[i]))
        tight_idx = near.argmax(axis=1)
        loose_idx = in_range.argmax(axis=1)  # first listed within cover radius
        out.maps.append(np.where(counts == 1, tight_idx, loose_idx).astype(int))
        out.tight.append(counts == 1)
    return out


def build_cube_system(space: QuasiMetricSpace, level_points,
                      order: ParentMaps,
                      closed: Optional[dict] = None) -> CubeSystem:
    """Close the parent order downward into per-level partitions.

    The finest level list must contain every point of the space (it seeds the
    member closure); coarser members are unions of their children's members.
    `closed`, a dict kept across calls on one space, shares levels between
    the systems built with it by content: the assign array and grouped
    members are made once per distinct (cube count, assign) pair, and every
    later level with that content, in any system, gets the same arrays.
    """
    centers = [np.asarray(lv, dtype=int) for lv in level_points]
    n_levels = len(centers)
    if not np.array_equal(np.sort(centers[-1]), np.arange(space.n)):
        raise PreconditionFail(
            "finest level must enumerate every point of the space")
    closed = {} if closed is None else closed
    assign, members = [], []
    for pts, a in zip(centers, close_assign(space.n, centers[-1],
                                            order.maps[:n_levels - 1])):
        key = (pts.size, a.tobytes())
        if key not in closed:
            # a stable sort keeps each cube's members in ascending point order
            sizes = np.bincount(a, minlength=pts.size)
            closed[key] = (a, (np.argsort(a, kind="stable"),
                               np.concatenate(([0], np.cumsum(sizes)))))
        assign.append(closed[key][0])
        members.append(closed[key][1])
    return CubeSystem(space=space, k_min=order.k_top,
                      k_max=order.k_top + n_levels - 1, constants=order.constants,
                      mode=order.mode, level_points=centers, order=order,
                      members=members, assign=assign)


def close_assign(n: int, finest, maps) -> list:
    """Point -> cube index on every level of a parent order, coarsest first.

    The finest list (of all n points) indexes the finest level; each coarser
    level composes the parent map below it, maps[j][assign[j + 1]].
    """
    assign = [None] * (len(maps) + 1)
    assign[-1] = np.empty(n, dtype=int)
    assign[-1][finest] = np.arange(len(finest))
    for j in range(len(maps) - 1, -1, -1):
        assign[j] = maps[j][assign[j + 1]]
    return assign


def verify_cube_axioms(system: CubeSystem) -> VerificationReport:
    """Re-derive the promised cube geometry from realized member sets.

    The report contract: the checks are, in this order, partition, nesting,
    ball_sandwich_inner, ball_sandwich_outer, descendant_ball_sets,
    descendant_ball_radii, descendant_center_proximity and topology, and
    each one's `checked` count and witness tuples are part of it. Nesting and the descendant
    checks cover every pair of levels, not only consecutive ones (the radii
    bound alone is checked between consecutive levels but counted over all
    pairs). A point's cube on a level is read from the grouped member
    arrays, never from `system.assign`; a point listed in several cubes of
    one level belongs to the last of them. The sandwich is taken around
    the centers `system.level_points`, the descendant checks around the
    same centers linked by the parent maps; their distance rows (level
    size x n per level) are gathered once per level.
    """
    space = system.space
    n = space.n
    delta = system.delta
    inner = system.constants.inner_const
    outer = system.constants.outer_const
    ks = list(system.level_ks())
    rep = VerificationReport("cube axioms")

    # partition: member lists of one level cover each point exactly once
    part_bad, part_n = [], 0
    owner, member_assign = [], []
    for k, (flat, start) in zip(ks, system.members):
        counts = np.bincount(flat, minlength=n)
        cube_of = np.repeat(np.arange(start.size - 1), np.diff(start))
        arr = np.full(n, -1, dtype=int)
        np.maximum.at(arr, flat, cube_of)
        owner.append(cube_of)
        member_assign.append(arr)
        part_n += n
        if (counts != 1).any():
            bad = int(np.argmax(counts != 1))
            part_bad.append((k, bad, int(counts[bad])))
    rep.add("partition", not part_bad, part_n, part_bad,
            note="witness: (level, point, multiplicity)")

    # nesting: a finer cube's members sit inside a single coarser cube
    nest_bad, nest_n = [], 0
    for a, k in enumerate(ks):
        for b in range(a + 1, len(ks)):
            fine = ks[b]
            flat, start = system.members[b]
            full = np.flatnonzero(np.diff(start))
            nest_n += full.size
            if not full.size:
                continue
            # empty cubes add no entries: each segment is one cube's members
            up = member_assign[a][flat]
            lo = np.minimum.reduceat(up, start[full])
            hi = np.maximum.reduceat(up, start[full])
            for i in full[(lo != hi) | (lo < 0)]:
                hit = np.unique(up[start[i]:start[i + 1]])
                nest_bad.append((k, fine, int(i), hit.tolist()))
    rep.add("nesting", not nest_bad, nest_n, nest_bad,
            note="witness: (coarse level, fine level, cube, coarse indices hit)")

    # ball sandwich around each center
    center_rows = [space.dist_rows(pts) for pts in system.level_points]
    lo_bad, hi_bad, sand_n = [], [], 0
    for j, k in enumerate(ks):
        r_in = inner * delta ** k
        r_out = outer * delta ** k
        rows = center_rows[j]
        flat = system.members[j][0]
        sand_n += len(rows)
        stray = (rows < r_in) & (member_assign[j] != np.arange(len(rows))[:, None])
        for i in np.flatnonzero(stray.any(axis=1)):
            miss = int(np.argmax(stray[i]))
            lo_bad.append((k, int(i), miss, float(rows[i, miss])))
        far = np.flatnonzero(rows[owner[j], flat] >= r_out)
        for i, first in zip(*np.unique(owner[j][far], return_index=True)):
            p = int(flat[far[first]])
            hi_bad.append((k, int(i), p, float(rows[i, p])))
    rep.add("ball_sandwich_inner", not lo_bad, sand_n, lo_bad,
            note="points inside the inner ball must be members")
    rep.add("ball_sandwich_outer", not hi_bad, sand_n, hi_bad,
            note="members must stay inside the outer ball")

    # descendants: outer balls nest as sets, radii close arithmetically,
    # and descendant centers stay near ancestor centers
    anc = _ancestor_tables(system)
    set_bad, radii_bad, prox_bad, desc_n = [], [], [], 0
    for b, fine in enumerate(ks):
        pts_f = np.asarray(system.level_points[b], dtype=int)
        r_f = outer * delta ** fine
        inside = center_rows[b] < r_f
        for a in range(b):
            k = ks[a]
            r_c = outer * delta ** k
            row_c = center_rows[a][anc[b][a]]           # ancestor center rows
            d_cf = row_c[np.arange(pts_f.size), pts_f]  # ancestor -> fine center
            desc_n += pts_f.size
            for i in np.flatnonzero((inside & (row_c >= r_c)).any(axis=1)):
                set_bad.append((k, fine, int(i)))
            if fine == k + 1:
                # arithmetic closure is an immediate-step bound; deeper
                # pairs inherit containment by chaining the steps
                gap = system.constants.tri_const * (d_cf + r_f)
                for i in np.flatnonzero(gap > r_c * (1 + _TOL)):
                    radii_bad.append((k, fine, int(i), float(gap[i]), float(r_c)))
            for i in np.flatnonzero(d_cf >= r_c):
                prox_bad.append((k, fine, int(i), float(d_cf[i])))
    rep.add("descendant_ball_sets", not set_bad, desc_n, set_bad)
    rep.add("descendant_ball_radii", not radii_bad, desc_n, radii_bad,
            note="one-step arithmetic bound between consecutive levels")
    rep.add("descendant_center_proximity", not prox_bad, desc_n, prox_bad)

    rep.add("topology", True, 0,
            note="interior/closure coincide on finite point sets; nothing to check")
    return rep


def _ancestor_tables(system):
    """anc[b][a][i]: index on level a of the ancestor of cube i on level b."""
    n_levels = len(system.level_points)
    anc = []
    for b in range(n_levels):
        rows = [None] * b
        cur = np.arange(len(system.level_points[b]))
        for a in range(b - 1, -1, -1):
            cur = system.order.maps[a][cur]
            rows[a] = cur
        anc.append(rows)
    return anc


def boundary_zone(system: CubeSystem, k: int, index: int, eps: float) -> np.ndarray:
    """Members of the cube within eps (inclusive) of its complement.

    The cube covering the whole space has an empty boundary zone.
    """
    members = system.cube(k, index).members
    outside = np.ones(system.space.n, dtype=bool)
    outside[members] = False
    if not outside.any():
        return members[:0]
    gap = system.space.dist_rows(members, np.flatnonzero(outside))
    return members[gap.min(axis=1) <= eps]
