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

The checker re-derives each system's promised geometry from its realized
member sets: partition, nesting, the inner/outer ball sandwich with the
radii c1 and C1 of `constants.SystemConstants`, containment of descendant
outer balls, and proximity of descendant centers. Nesting and the descendant
checks run over every pair of levels. It takes the systems of one space, a
family say, and runs each check once per distinct level or level pair,
keyed on array bytes. Each check's name, its place in the report and its
`checked` count are part of the report contract: run reports and benchmark
references digest them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .constants import _TOL, SystemConstants, require_headroom
from .errors import (ConfigError, NoParent, PreconditionFail, TightAmbiguity,
                     require_id)
from .report import VerificationReport
from .space import QuasiMetricSpace

MODES = ("strict", "exploratory")


def require_mode(mode) -> None:
    """ConfigError unless `mode` is one of MODES."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


def require_delta(delta) -> float:
    """`delta` as a float when it is a number in (0, 1); ConfigError
    otherwise, so NaN and infinities are refused."""
    if isinstance(delta, bool) or not isinstance(delta, (int, float)) \
            or not 0.0 < delta < 1.0:
        raise ConfigError(f"delta: expected a ratio in (0, 1), got {delta!r}")
    return float(delta)


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
        return require_id("level", k, self.k_min, self.k_max) - self.k_min

    def cubes_at(self, k: int) -> list:
        return [self.cube(k, i)
                for i in range(len(self.level_points[self._level_index(k)]))]

    def cube(self, k: int, index: int) -> Cube:
        j = self._level_index(k)
        index = require_id("cube", index, 0, len(self.level_points[j]), ")")
        flat, start = self.members[j]
        return Cube(int(self.level_points[j][index]),
                    flat[start[index]:start[index + 1]])

    def locate(self, k: int, point: int) -> int:
        """Index of the cube containing `point` on level k."""
        j = self._level_index(k)
        return int(self.assign[j][require_id("point", point, 0,
                                             self.space.n, ")")])

    def to_json(self, shared: Optional[dict] = None):
        """The system as a JSON document. `shared`, a dict kept across calls
        on one family, makes equal level and parent entries one object,
        keyed on their content (k and array bytes), never on identity; a
        document built with it is read-only."""
        shared = {} if shared is None else shared
        levels = []
        for k, pts, (flat, start) in zip(self.level_ks(), self.level_points,
                                          self.members):
            key = (k, pts.tobytes(), flat.tobytes(), start.tobytes())
            if key not in shared:
                flat, start = flat.tolist(), start.tolist()
                shared[key] = {"k": k, "cubes": [
                    {"center": c, "members": flat[s:e]}
                    for c, s, e in zip(pts.tolist(), start, start[1:])]}
            levels.append(shared[key])
        parents = []
        if self.order:
            for k, m, t in zip(self.level_ks(), self.order.maps,
                               self.order.tight):
                key = (k, m.tobytes(), t.tobytes())
                if key not in shared:
                    shared[key] = {"k": k, "map": m.tolist(),
                                   "tight": t.tolist()}
                parents.append(shared[key])
        return {
            "delta": self.delta,
            "mode": self.mode,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "constants": self.constants.to_json(),
            "levels": levels,
            "parents": parents,
        }

    @classmethod
    def from_json(cls, d, space):
        """Read a system back; a point listed in several cubes of one level
        is assigned to the last of them."""
        require_mode(d["mode"])
        c0, C0 = float(d["constants"]["c0"]), float(d["constants"]["C0"])
        if not np.isfinite([c0, C0]).all():
            raise ConfigError(f"constants c0={c0} and C0={C0} must be finite")
        consts = SystemConstants(require_delta(d["delta"]),
                                 space.profile.tri_const, c0, C0)
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
    for the tight/loose rule. Strict mode insists on Theorem 2.2's
    "parent order" headroom (`constants.require_headroom`).

    Each level may carry a leading sample axis: a (B, m) level holds B
    center lists of one length, and its map and tight flags are (B, m)
    too. A batched step reads the distances of every id it holds with one
    `dist_rows` call and gathers each sample's block from it, so its floats
    are those of the one-sample call. A batched call raises at the first
    failing level, for the first sample failing there, with the child index
    in that sample's list.
    """
    require_mode(mode)
    consts = SystemConstants(delta, tri_const, sep_const, cover_const)
    if mode == "strict":
        require_headroom("parent order", consts)
    out = ParentMaps(k_top=k_top, constants=consts, mode=mode)
    for j in range(len(level_points) - 1):
        k = k_top + j
        parents = np.asarray(level_points[j], dtype=int)
        children = np.asarray(level_points[j + 1], dtype=int)
        tight_thr = sep_const * delta ** k / (2.0 * tri_const)
        loose_thr = cover_const * delta ** k
        if parents.ndim == 1:
            dists = space.dist_rows(children, parents)
            near, in_range = dists < tight_thr, dists < loose_thr
        else:
            # one block over the batch's distinct ids, compared once; each
            # sample takes its parents' columns of the comparisons for every
            # distinct child, (children, B, parents), until rows_at picks
            # the sample's own children
            rows, rows_at = _distinct(children, space.n)
            cols, cols_at = _distinct(parents, space.n)
            dists = space.dist_rows(rows, cols)
            near = (dists < tight_thr)[:, cols_at]
            in_range = (dists < loose_thr)[:, cols_at]
        # the first listed tight parent, the first listed within cover radius
        found = (near.sum(axis=-1), in_range.any(axis=-1),
                 near.argmax(axis=-1), in_range.argmax(axis=-1))
        if parents.ndim > 1:
            found = [np.take_along_axis(a.T, rows_at, -1) for a in found]
        counts, reached, tight_idx, loose_idx = found
        if (counts > 1).any():
            *b, i = np.argwhere(counts > 1)[0]
            child, cands = int(children[(*b, i)]), parents[tuple(b)]
            near_i = space.dist_rows([child], cands)[0] < tight_thr
            raise TightAmbiguity(k, int(i), child, cands[near_i].tolist())
        if (~reached & (counts == 0)).any():
            *b, i = np.argwhere(~reached & (counts == 0))[0]
            raise NoParent(k, int(i), int(children[(*b, i)]))
        out.maps.append(np.where(counts == 1, tight_idx, loose_idx).astype(int))
        out.tight.append(counts == 1)
    return out


def _distinct(ids, n: int):
    """(the distinct point ids in `ids`, ascending; each id's position
    among them), as np.unique with return_inverse gives them."""
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[ids]


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
    level composes the parent map below it, maps[j][assign[j + 1]]. With a
    leading sample axis (see `build_partial_order`), a (B, n) finest list
    and (B, m) maps give one assignment per sample, (B, n).
    """
    assign = [None] * (len(maps) + 1)
    if np.ndim(finest) == 1:
        assign[-1] = np.empty(n, dtype=int)
        assign[-1][finest] = np.arange(len(finest))
        for j in range(len(maps) - 1, -1, -1):
            assign[j] = maps[j][assign[j + 1]]
        return assign
    b, m = np.shape(finest)
    assign[-1] = np.empty((b, n), dtype=int)
    np.put_along_axis(assign[-1], np.asarray(finest), np.arange(m), axis=-1)
    for j in range(len(maps) - 1, -1, -1):
        assign[j] = np.take_along_axis(maps[j], assign[j + 1], axis=-1)
    return assign


_AXIOMS = (  # the report contract: check names in report order, with notes
    ("partition", "witness: (level, point, multiplicity)"),
    ("nesting", "witness: (coarse level, fine level, cube, coarse indices hit)"),
    ("ball_sandwich_inner", "points inside the inner ball must be members"),
    ("ball_sandwich_outer", "members must stay inside the outer ball"),
    ("descendant_ball_sets", ""),
    ("descendant_ball_radii",
     "one-step arithmetic bound between consecutive levels"),
    ("descendant_center_proximity", ""),
    ("topology",
     "interior/closure coincide on finite point sets; nothing to check"))


def verify_cube_axioms(systems) -> list:
    """One report per system of one space, in order: the _AXIOMS checks with
    their `checked` counts and witnesses, each report the one its system
    gets alone. Cubes are read from the member arrays, never from
    `system.assign` (a point listed twice on a level belongs to the last
    cube), centers from `system.level_points`, linked by the composed parent
    maps. Each check runs once per distinct key of the call: its levels k,
    the constants behind the radii and the bytes of every array it reads.
    """
    systems = list(systems)
    if any(s.space is not systems[0].space for s in systems):
        raise PreconditionFail("the systems must share one space")
    tokens, memo = {}, {}

    def tag(a):
        return tokens.setdefault((a.dtype.str, a.tobytes()), len(tokens))

    def once(key, fn, *args):
        return memo[key] if key in memo else memo.setdefault(key, fn(*args))

    # center list tokens per system, and the last system reading each list:
    # its distance rows leave the memo after that system
    ctrs = [[tag(p) for p in s.level_points] for s in systems]
    last = {t: i for i, ctr in enumerate(ctrs) for t in ctr}
    reports = []
    for i, (system, ctr) in enumerate(zip(systems, ctrs)):
        space, c, pts = system.space, system.constants, system.level_points
        ks, members = list(system.level_ks()), system.members
        mem = [(tag(flat), tag(start)) for flat, start in members]  # tokens
        rows = [once(("rows", t), space.dist_rows, p)
                for t, p in zip(ctr, pts)]
        found, parts = [], []   # found: (check, checked, witnesses)
        for j, k in enumerate(ks):
            parts.append(once(("partition", k, *mem[j]), _partition, space.n,
                              k, *members[j]))
            lo, hi = once(("sandwich", k, c, ctr[j], *mem[j]), _sandwich,
                          k, c, rows[j], *parts[j][1:], members[j][0])
            found += [("partition", space.n, parts[j][0]),
                      ("ball_sandwich_inner", pts[j].size, lo),
                      ("ball_sandwich_outer", pts[j].size, hi)]
        for a, b in itertools.combinations(range(len(ks)), 2):
            found.append(("nesting", *once(
                ("nesting", ks[a], ks[b], *mem[a], *mem[b]), _nesting,
                ks[a], ks[b], parts[a][2], *members[b])))
        for b, fine in enumerate(ks):
            anc = [np.arange(pts[b].size)]   # anc[a][i]: ancestor on level a
            for m in reversed(system.order.maps[:b]):
                anc.insert(0, m[anc[0]])
            for a, k in enumerate(ks[:b]):
                key = (fine, c, ctr[b], tag(anc[a]))
                union = once(("union", *key), _ball_union, fine, c, rows[b],
                             anc[a])
                sets, radii, near = once(
                    ("descendants", k, ctr[a], *key), _descendants, k, fine,
                    c, rows[a], rows[b], pts[b], anc[a], *union)
                found += [("descendant_ball_sets", pts[b].size, sets),
                          ("descendant_ball_radii", pts[b].size, radii),
                          ("descendant_center_proximity", pts[b].size, near)]
        rep = VerificationReport("cube axioms")
        for name, note in _AXIOMS:
            hits = [f for f in found if f[0] == name]
            bad = [w for *_, witnesses in hits for w in witnesses]
            rep.add(name, not bad, sum(f[1] for f in hits), bad, note=note)
        reports.append(rep)
        for t in ctr:
            if last[t] == i:
                memo.pop(("rows", t), None)
    return reports


def _partition(n, k, flat, start):
    """(witnesses, owner, member_assign): cube owner[e] lists flat[e], and
    cube member_assign[p] is the last to list p."""
    counts = np.bincount(flat, minlength=n)
    owner = np.repeat(np.arange(start.size - 1), np.diff(start))
    member_assign = np.full(n, -1, dtype=int)
    np.maximum.at(member_assign, flat, owner)
    bad = np.flatnonzero(counts != 1)[:1]
    return [(k, int(p), int(counts[p])) for p in bad], owner, member_assign


def _nesting(k, fine, member_assign, flat, start):
    """(checked, witnesses): each nonempty cube of level `fine`, one reduceat
    segment (empty cubes list no entries), sits in one cube of level k."""
    full = np.flatnonzero(np.diff(start))
    up = member_assign[flat]
    lo = np.minimum.reduceat(up, start[full])
    hi = np.maximum.reduceat(up, start[full])
    return full.size, [
        (k, fine, int(i), np.unique(up[start[i]:start[i + 1]]).tolist())
        for i in full[(lo != hi) | (lo < 0)]]


def _sandwich(k, c, rows, owner, member_assign, flat):
    """(inner, outer) witnesses; rows[i] is the row of cube i's center."""
    stray = ((rows < c.inner_const * c.delta ** k)
             & (member_assign != np.arange(len(rows))[:, None]))
    miss = stray.argmax(axis=1)
    far = np.flatnonzero(rows[owner, flat] >= c.outer_const * c.delta ** k)
    cubes, first = np.unique(owner[far], return_index=True)
    return ([(k, int(i), int(miss[i]), float(rows[i, miss[i]]))
             for i in np.flatnonzero(stray.any(axis=1))],
            [(k, int(i), int(p), float(rows[i, p]))
             for i, p in zip(cubes, flat[far[first]])])


def _ball_union(fine, c, rows, anc):
    """(q, union): the ancestors q in anc, ascending, and for each the union
    of its descendants' outer balls on level `fine` as a point mask."""
    order = np.argsort(anc, kind="stable")
    q, first = np.unique(anc[order], return_index=True)
    return q, np.logical_or.reduceat(
        rows[order] < c.outer_const * c.delta ** fine, first)


def _descendants(k, fine, c, rows_k, rows_f, pts_f, anc, q, balls):
    """(sets, radii, proximity) witnesses of level k over level `fine`: cube
    i has center pts_f[i] and ancestor anc[i]; _ball_union gives q, balls."""
    r_c, r_f = c.outer_const * c.delta ** k, c.outer_const * c.delta ** fine
    # a fine ball leaves its ancestor's ball only where the union of that
    # ancestor's descendant balls does, so only those fine cubes are scanned
    suspects = np.flatnonzero(np.isin(
        anc, q[(balls & (rows_k[q] >= r_c)).any(axis=1)]))
    leaks = ((rows_f[suspects] < r_f)
             & (rows_k[anc[suspects]] >= r_c)).any(axis=1)
    d_cf = rows_k[anc, pts_f]   # ancestor center -> fine center
    # the radii bound is one step; deeper pairs chain the steps
    gap = c.tri_const * (d_cf + r_f)
    over = np.flatnonzero(gap > r_c * (1 + _TOL)) if fine == k + 1 else []
    return ([(k, fine, int(i)) for i in suspects[leaks]],
            [(k, fine, int(i), float(gap[i]), float(r_c)) for i in over],
            [(k, fine, int(i), float(d_cf[i]))
             for i in np.flatnonzero(d_cf >= r_c)])


def boundary_zone(system: CubeSystem, k: int, index: int, eps: float) -> np.ndarray:
    """Members of the cube within eps (inclusive) of its complement.

    The cube covering the whole space has an empty boundary zone.
    """
    if not eps >= 0:
        raise PreconditionFail(f"eps must be nonnegative, got {eps}")
    members = system.cube(k, index).members
    inside = np.isin(system.space.points(), members)
    return members[_edge_gaps(system.space.dist_rows(members), inside, True,
                              eps)]


def _edge_gaps(rows, cube_of, own, eps=None) -> np.ndarray:
    """The edge-distance kernel: each point's distance to the nearest point
    outside its cube own[...] (0 when it lies outside it), inf when that
    cube is the whole space; rows and cube_of give every point's distance
    and cube on the last axis. Given eps: whether each gap is within each
    eps, inclusive, and never for a cube with no complement, even at inf."""
    gaps = np.where(cube_of != np.asarray(own)[..., None], rows,
                    np.inf).min(axis=-1)
    if eps is None:
        return gaps
    # an inf gap (no complement) turns nan, which is within no eps
    return np.less_equal.outer(np.where(gaps < np.inf, gaps, np.nan), eps)
